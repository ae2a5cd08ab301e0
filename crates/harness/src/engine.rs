//! Work-stealing experiment engine.
//!
//! The evaluation is a `(workload × prefetcher)` matrix whose cells cost
//! wildly different amounts of wall-clock time — trace sizes span orders of
//! magnitude across the 30 benchmarks. The chunked sweep this engine
//! replaced (retired in favour of this engine, behind [`crate::cli::Cli::sweep`])
//! split the *workload list* into static per-thread chunks, so one thread
//! could be stuck with the biggest traces while the rest idled. This engine
//! instead schedules **individual `(workload, prefetcher, scale)` jobs**:
//! workers pull the next job index from one shared atomic counter (a
//! lock-free single-producer queue over the precomputed job list), so load
//! imbalance is bounded by a single job, not a chunk.
//!
//! Determinism: every job is an independent, deterministic simulation, and
//! each worker writes its result into the job's slot by index. The returned
//! records are therefore **identical to the serial sweep** — same
//! workload-major, prefetcher-minor order, same values — for any worker
//! count and any scheduling interleaving (asserted by tests and the CI
//! perf-smoke job).
//!
//! Traces come from the persistent [`cbws_workloads::trace_store`] in the
//! packed columnar representation: within a process each `(workload,
//! scale)` trace is loaded once and shared by every prefetcher job, and
//! across processes the store's checksummed files skip DSL generation
//! entirely (the `generate` phase then measures verified load time). The
//! simulator replays the packed trace directly through its cursor — no
//! `Vec<TraceEvent>` is materialized.
//!
//! There is one job loop, the worker body: claim an index, run the job,
//! account it, tell the observer, record the `engine.*` metrics. A run
//! with one effective worker calls that body inline on the calling thread
//! (under the `worker-0` lane, restoring the caller's lane afterwards), so
//! single-job requests and `--jobs 1` sweeps pay no thread spawn; any more
//! workers call it from scoped threads. Records, worker stats, phases,
//! spans and metrics have the same shape either way.
//!
//! Results can come from the persistent [`crate::result_store`] when the
//! configured [`ResultCache`] attaches one: each job is content-addressed
//! by (trace hash, prefetcher kind + config hash, scale, simulator-version
//! hash), and a verified hit skips the trace load and the simulation
//! entirely — the stored record is byte-identical to a fresh run (asserted
//! by determinism tests), so resumed or repeated sweeps pay only for the
//! jobs whose inputs changed. Hits and misses are tallied per worker in
//! [`WorkerStats`] and surface in every manifest.
//!
//! Each job's clock is split into phases kept in [`WorkerStats`]: `cached`
//! (a result-store hit), `generate` (trace load or generation), `simulate`
//! and `store` (a result-store miss lookup and the write of the fresh
//! record).
//!
//! Telemetry: the engine records `engine.*` metrics into its configured
//! sink — `engine.workers`, `engine.jobs.total`, `engine.jobs.completed`,
//! `engine.job.us`, `engine.queue.depth`, `engine.jobs_per_sec`,
//! `engine.utilization`, `engine.wall_seconds` — plus one
//! `phase.<name>.seconds` gauge per phase that ran. Per-run simulator
//! telemetry stays disabled inside the engine: concurrent runs would
//! interleave their `run.*` gauges, and telemetry is observationally
//! transparent to results, so nothing is lost.

use crate::result_store::{self, ResultKey, ResultStore};
use crate::runner::{PrefetcherKind, Simulator, SystemConfig};
use cbws_stats::RunRecord;
use cbws_telemetry::{detail, log, warn, Heartbeat, Log2Histogram, Spans, Telemetry, Verbosity};
use cbws_workloads::{trace_store, Group, Scale, WorkloadSpec};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of workers the engine will use for `jobs = 0` (all cores).
///
/// Unlike the chunked sweep this engine replaced, detection failure is
/// *reported* (and falls back to serial execution) instead of silently
/// pretending the machine has four cores. The answer is probed once per
/// process: `available_parallelism` re-reads the cgroup CPU quota files on
/// every call, and every run manifest asks.
///
/// ```
/// let workers = cbws_harness::engine::detect_parallelism();
/// assert!(workers >= 1);
/// ```
pub fn detect_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| match std::thread::available_parallelism() {
        Ok(n) => n.get(),
        Err(e) => {
            warn!("[engine] cannot detect available parallelism ({e}); running single-threaded");
            1
        }
    })
}

/// Environment variable overriding the default streamed-replay threshold
/// (bytes). Store files larger than this replay through the disk-backed
/// read-ahead cursor instead of being loaded into memory.
pub const STREAM_THRESHOLD_ENV: &str = "CBWS_STREAM_THRESHOLD_BYTES";

/// Default streamed-replay threshold: 256 MiB. Every committed scale's
/// store files sit far below this, so behaviour (and performance) of
/// existing sweeps is unchanged; `Scale::Huge` traces cross it and stream.
pub const DEFAULT_STREAM_THRESHOLD_BYTES: u64 = 256 * 1024 * 1024;

/// Where the engine looks for previously computed simulation results
/// ([`crate::result_store`]).
#[derive(Debug, Clone, Default)]
pub enum ResultCache {
    /// No reads, no writes — every job simulates from its trace. The
    /// library default: unit tests and callers that measure simulation
    /// itself stay unaffected by whatever the store happens to hold.
    /// Binaries opt in through their command line ([`crate::cli`]), which
    /// picks [`ResultCache::Shared`] unless `--no-result-cache` is given.
    #[default]
    Off,
    /// The process-wide [`result_store::shared`] store
    /// (`CBWS_RESULT_STORE_DIR`).
    Shared,
    /// A specific store instance (benches and tests with scratch
    /// directories).
    At(Arc<ResultStore>),
}

/// Everything an [`EngineConfig::observer`] learns about one completed
/// job. Borrowed — observers that keep the record clone it.
#[derive(Debug)]
pub struct JobUpdate<'a> {
    /// Job index in the serial (workload-major, prefetcher-minor) order.
    pub job: usize,
    /// Total jobs of the run's matrix.
    pub job_count: usize,
    /// The workload simulated.
    pub workload: &'static str,
    /// Display name of the prefetcher simulated.
    pub prefetcher: &'static str,
    /// Whether the record was served from the result store.
    pub cached: bool,
    /// The job's record, byte-identical to a serial sweep's.
    pub record: &'a RunRecord,
}

/// Per-job completion callback (the sweep server's streaming hook). Called
/// from whichever worker thread finished the job, in completion (not
/// serial) order; returning `false` requests cooperative cancellation —
/// workers stop claiming new jobs and the run returns with
/// [`EngineRun::cancelled`] set.
pub type JobObserver = Arc<dyn Fn(&JobUpdate<'_>) -> bool + Send + Sync>;

/// Engine configuration.
#[derive(Clone)]
pub struct EngineConfig {
    /// Worker count; `0` means [`detect_parallelism`] (all cores). The
    /// effective count is additionally clamped to the number of jobs.
    pub jobs: usize,
    /// System configuration every simulation runs under.
    pub system: SystemConfig,
    /// Sink for `engine.*` metrics and phase gauges (disabled by default).
    pub telemetry: Telemetry,
    /// Span collector for per-worker timelines (disabled by default). Each
    /// worker gets a `worker-N` lane carrying one span per job plus the
    /// idle gaps between claims; the trace store and `Core::run` nest
    /// their spans underneath.
    pub spans: Spans,
    /// Result-store policy: with a store attached, each job first consults
    /// it by content key — a hit skips the trace load and the simulation
    /// entirely and returns the stored (checksummed, key-verified) record;
    /// a miss simulates and persists. Off by default.
    pub result_cache: ResultCache,
    /// When `false`, jobs still consult the result store but fresh records
    /// are **not** persisted — reads stay warm, the store grows by nothing.
    /// The sweep server runs over-quota clients in this mode; `true` (the
    /// default) everywhere else.
    pub store_writes: bool,
    /// Per-job completion callback; `None` (the default) costs nothing.
    /// See [`JobObserver`] for the calling convention and cancellation.
    pub observer: Option<JobObserver>,
    /// Streamed-replay threshold in bytes: trace-store files larger than
    /// this replay through [`cbws_workloads::trace_store::TraceStore::replay_source`]'s
    /// disk-backed cursor instead of being loaded into memory. `None` (the
    /// default) resolves to [`STREAM_THRESHOLD_ENV`] when set, else
    /// [`DEFAULT_STREAM_THRESHOLD_BYTES`]. `0` streams everything.
    pub stream_threshold_bytes: Option<u64>,
}

impl EngineConfig {
    /// The effective streamed-replay threshold for this run: the explicit
    /// [`EngineConfig::stream_threshold_bytes`], else
    /// [`STREAM_THRESHOLD_ENV`], else [`DEFAULT_STREAM_THRESHOLD_BYTES`].
    pub fn resolved_stream_threshold(&self) -> u64 {
        self.stream_threshold_bytes.unwrap_or_else(|| {
            std::env::var(STREAM_THRESHOLD_ENV)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(DEFAULT_STREAM_THRESHOLD_BYTES)
        })
    }
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("jobs", &self.jobs)
            .field("result_cache", &self.result_cache)
            .field("store_writes", &self.store_writes)
            .field("observer", &self.observer.as_ref().map(|_| ".."))
            .field("stream_threshold_bytes", &self.stream_threshold_bytes)
            .finish_non_exhaustive()
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: 0,
            system: SystemConfig::default(),
            telemetry: Telemetry::disabled(),
            spans: Spans::disabled(),
            result_cache: ResultCache::Off,
            store_writes: true,
            observer: None,
            stream_threshold_bytes: None,
        }
    }
}

/// Scheduling observability for one worker of an engine run.
///
/// Recorded unconditionally (the counters are a handful of adds per job),
/// independent of whether spans or telemetry are enabled — this is the
/// auditable-scaling evidence every manifest carries.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Worker index (`0..workers`), matching the `worker-N` span lane.
    pub worker: usize,
    /// Jobs this worker claimed and completed.
    pub jobs: usize,
    /// Seconds spent executing jobs: every phase below plus the per-job
    /// bookkeeping between them (result key, spans).
    pub busy_seconds: f64,
    /// Seconds inside the worker loop not spent on a job (claim overhead
    /// and the tail after the queue drained).
    pub idle_seconds: f64,
    /// Jobs served from the result store (zero when the run's
    /// [`ResultCache`] is `Off`).
    pub store_hits: usize,
    /// Jobs simulated because the result store had no valid entry (zero
    /// when the run's [`ResultCache`] is `Off`).
    pub store_misses: usize,
    /// Distribution of per-job durations in microseconds.
    pub job_us: Log2Histogram,
    /// Seconds serving result-store hits (the `cached` phase); `None` when
    /// no job hit.
    pub cached_seconds: Option<f64>,
    /// Seconds obtaining traces from the trace store (the `generate`
    /// phase: a verified load, or DSL generation on a miss).
    pub generate_seconds: Option<f64>,
    /// Seconds replaying traces through the simulator (the `simulate`
    /// phase).
    pub simulate_seconds: Option<f64>,
    /// Seconds in the result store on a miss: the failed lookup and the
    /// write of the fresh record (the `store` phase); `None` when the run's
    /// [`ResultCache`] is `Off`.
    pub store_seconds: Option<f64>,
}

impl WorkerStats {
    /// Fresh zeroed stats for worker `worker`.
    fn new(worker: usize) -> WorkerStats {
        WorkerStats {
            worker,
            jobs: 0,
            busy_seconds: 0.0,
            idle_seconds: 0.0,
            store_hits: 0,
            store_misses: 0,
            job_us: Log2Histogram::new(),
            cached_seconds: None,
            generate_seconds: None,
            simulate_seconds: None,
            store_seconds: None,
        }
    }

    /// The phases this worker ran as `(name, seconds)`, in job order;
    /// phases that never ran are absent.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, f64)> {
        [
            ("cached", self.cached_seconds),
            ("generate", self.generate_seconds),
            ("simulate", self.simulate_seconds),
            ("store", self.store_seconds),
        ]
        .into_iter()
        .filter_map(|(name, secs)| Some((name, secs?)))
    }

    /// Folds another run's stats for the same worker index into `self`.
    pub fn merge(&mut self, other: &WorkerStats) {
        self.jobs += other.jobs;
        self.busy_seconds += other.busy_seconds;
        self.idle_seconds += other.idle_seconds;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
        self.job_us.merge(&other.job_us);
        let add = |mine: &mut Option<f64>, theirs: Option<f64>| {
            if let Some(secs) = theirs {
                *mine.get_or_insert(0.0) += secs;
            }
        };
        add(&mut self.cached_seconds, other.cached_seconds);
        add(&mut self.generate_seconds, other.generate_seconds);
        add(&mut self.simulate_seconds, other.simulate_seconds);
        add(&mut self.store_seconds, other.store_seconds);
    }
}

/// Adds the time since `since` to a phase slot of [`WorkerStats`].
fn charge(slot: &mut Option<f64>, since: Instant) {
    *slot.get_or_insert(0.0) += since.elapsed().as_secs_f64();
}

/// The result of one engine run: the records in serial-sweep order plus
/// scheduling/timing observability.
#[derive(Debug, Default)]
pub struct EngineRun {
    /// One record per `(workload, prefetcher)` job, workload-major,
    /// prefetcher-minor — byte-identical to the serial sweep's output.
    pub records: Vec<RunRecord>,
    /// Workers actually used.
    pub workers: usize,
    /// Total jobs executed.
    pub job_count: usize,
    /// End-to-end wall-clock seconds of the run.
    pub wall_seconds: f64,
    /// Mean fraction of the run each worker spent busy (0..=1).
    pub utilization: f64,
    /// Per-worker scheduling stats, ordered by worker index.
    pub worker_stats: Vec<WorkerStats>,
    /// `true` when an [`JobObserver`] requested cancellation mid-run:
    /// `records` then holds only the jobs that completed (still sorted by
    /// serial index, but with gaps) and must not be treated as a full
    /// matrix.
    pub cancelled: bool,
}

impl EngineRun {
    /// Jobs completed per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.job_count as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Jobs served from the result store, summed across workers.
    pub fn store_hits(&self) -> usize {
        self.worker_stats.iter().map(|s| s.store_hits).sum()
    }

    /// Jobs simulated because the result store had no valid entry, summed
    /// across workers.
    pub fn store_misses(&self) -> usize {
        self.worker_stats.iter().map(|s| s.store_misses).sum()
    }

    /// Per-phase seconds summed across workers; phases no worker ran are
    /// absent (a fully cached run has `cached` and no `simulate`).
    pub fn phases(&self) -> BTreeMap<String, f64> {
        let mut totals = BTreeMap::new();
        for (name, secs) in self.worker_stats.iter().flat_map(WorkerStats::phases) {
            *totals.entry(name.to_string()).or_insert(0.0) += secs;
        }
        totals
    }

    /// Folds a later run into this one, for binaries that drive several
    /// engine runs and report one manifest: records append, job counts and
    /// wall seconds add up, worker stats merge by worker index, and
    /// utilization is recomputed over the combined wall clock.
    pub fn merge(&mut self, other: EngineRun) {
        self.records.extend(other.records);
        self.workers = self.workers.max(other.workers);
        self.job_count += other.job_count;
        self.wall_seconds += other.wall_seconds;
        self.cancelled |= other.cancelled;
        for s in &other.worker_stats {
            match self.worker_stats.iter_mut().find(|a| a.worker == s.worker) {
                Some(a) => a.merge(s),
                None => self.worker_stats.push(s.clone()),
            }
        }
        self.worker_stats.sort_unstable_by_key(|s| s.worker);
        self.utilization = utilization(&self.worker_stats, self.workers, self.wall_seconds);
    }
}

/// Mean busy fraction of `workers` workers over `wall_seconds`.
fn utilization(stats: &[WorkerStats], workers: usize, wall_seconds: f64) -> f64 {
    let busy: f64 = stats.iter().map(|s| s.busy_seconds).sum();
    if wall_seconds > 0.0 && workers > 0 {
        (busy / (workers as f64 * wall_seconds)).min(1.0)
    } else {
        0.0
    }
}

/// One run's job queue: the matrix, the shared claim counter, and the
/// settings every worker reads. [`JobQueue::work`] is the engine's only
/// job loop.
struct JobQueue<'a> {
    cfg: &'a EngineConfig,
    store: Option<&'a ResultStore>,
    scale: Scale,
    workloads: &'a [&'static WorkloadSpec],
    kinds: &'a [PrefetcherKind],
    /// `config_hash` of each of `kinds` under the run's system
    /// configuration, computed once per run rather than once per job.
    config_hashes: Vec<u64>,
    job_count: usize,
    stream_threshold: u64,
    /// Next unclaimed job index.
    next: AtomicUsize,
    /// Jobs finished so far, across workers.
    completed: AtomicUsize,
    /// Set by an observer returning `false`: workers stop claiming.
    cancel: AtomicBool,
    /// Done/total progress lines under `--progress`, shared so the rate
    /// limit is global.
    heartbeat: Mutex<Heartbeat>,
}

/// What one worker hands back: its `(job index, record)` pairs and stats.
type WorkerOutput = (Vec<(usize, RunRecord)>, WorkerStats);

impl JobQueue<'_> {
    /// The worker body: binds the calling thread to the `worker-N` lane and
    /// claims jobs until the queue drains or an observer cancels.
    fn work(&self, worker: usize) -> WorkerOutput {
        let spans = &self.cfg.spans;
        let telemetry = &self.cfg.telemetry;
        spans.adopt_lane(spans.lane(&format!("worker-{worker}")));
        // Per-run simulator telemetry stays disabled (see the module docs),
        // but the span collector rides along so `Core::run` lands on this
        // worker's lane.
        let sim = Simulator::with_telemetry(
            self.cfg.system,
            Telemetry::disabled().with_spans(spans.clone()),
        );
        let mut done: Vec<(usize, RunRecord)> = Vec::new();
        let mut stats = WorkerStats::new(worker);
        let loop_start = Instant::now();
        loop {
            // The idle span covers the gap from the previous job's end (or
            // the loop start) to the next claim.
            let idle = spans.begin("idle");
            if self.cancel.load(Ordering::Relaxed) {
                break; // cooperative cancellation between jobs
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.job_count {
                break; // `idle` drops here, closing the gap
            }
            drop(idle);
            let w = self.workloads[i / self.kinds.len()];
            let k = i % self.kinds.len();
            let kind = self.kinds[k];
            let job_span = spans.is_enabled().then(|| {
                let g = spans.begin(&format!("{}/{}", w.name, kind.name()));
                g.attr("workload", w.name)
                    .attr("prefetcher", kind.name())
                    .attr("job", i);
                g
            });
            let job_start = Instant::now();
            let (record, cached) = self.run_job(&sim, w, k, &mut stats);
            if let (Some(g), Some(_)) = (&job_span, self.store) {
                g.attr("cached", cached);
            }
            drop(job_span);
            let job_elapsed = job_start.elapsed();
            stats.jobs += 1;
            stats.busy_seconds += job_elapsed.as_secs_f64();
            stats.job_us.record(job_elapsed.as_micros() as u64);
            if let Some(obs) = &self.cfg.observer {
                let go = obs(&JobUpdate {
                    job: i,
                    job_count: self.job_count,
                    workload: w.name,
                    prefetcher: kind.name(),
                    cached,
                    record: &record,
                });
                if !go {
                    self.cancel.store(true, Ordering::Relaxed);
                }
            }
            done.push((i, record));
            telemetry.count("engine.jobs.completed", 1);
            telemetry.observe("engine.job.us", job_elapsed.as_micros() as u64);
            telemetry.set_gauge(
                "engine.queue.depth",
                self.job_count
                    .saturating_sub(self.next.load(Ordering::Relaxed)) as f64,
            );
            let completed = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
            if log::level() >= Verbosity::Verbose {
                let msg = self
                    .heartbeat
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .tick(completed as u64, self.job_count as u64);
                if let Some(msg) = msg {
                    detail!("[engine] {msg}");
                }
            }
        }
        stats.idle_seconds = (loop_start.elapsed().as_secs_f64() - stats.busy_seconds).max(0.0);
        (done, stats)
    }

    /// Runs one `(workload, kinds[k])` job. With a result store attached
    /// it is consulted first — a verified hit skips the trace load and the
    /// simulation; a miss (or no store) loads the trace, simulates, and
    /// persists the fresh record. Each slice of the job lands in its phase
    /// of `stats`. Returns the record and whether it was served from the
    /// store.
    fn run_job(
        &self,
        sim: &Simulator,
        w: &'static WorkloadSpec,
        k: usize,
        stats: &mut WorkerStats,
    ) -> (RunRecord, bool) {
        let kind = self.kinds[k];
        let key = self
            .store
            .map(|_| ResultKey::with_config_hash(w, self.scale, kind, self.config_hashes[k]));
        if let (Some(st), Some(key)) = (self.store, key.as_ref()) {
            let lookup_start = Instant::now();
            let hit = st.get(key);
            let phase = match hit {
                Some(_) => &mut stats.cached_seconds,
                None => &mut stats.store_seconds,
            };
            charge(phase, lookup_start);
            if let Some(record) = hit {
                stats.store_hits += 1;
                return (record, true);
            }
        }
        let gen_start = Instant::now();
        let gen_span = self.cfg.spans.begin("generate");
        let trace = trace_store::shared().replay_source(w, self.scale, self.stream_threshold);
        gen_span.attr("streamed", trace.is_streamed());
        drop(gen_span);
        charge(&mut stats.generate_seconds, gen_start);
        let sim_start = Instant::now();
        let record = sim.run(w.name, w.group == Group::MemoryIntensive, &trace, kind);
        charge(&mut stats.simulate_seconds, sim_start);
        if let (Some(st), Some(key)) = (self.store, key.as_ref()) {
            if self.cfg.store_writes {
                let put_start = Instant::now();
                st.put(key, &record);
                charge(&mut stats.store_seconds, put_start);
            }
            stats.store_misses += 1;
        }
        (record, false)
    }
}

/// Schedules `(workload, prefetcher, scale)` simulation jobs across worker
/// threads. See the module docs for the scheduling and determinism model.
#[derive(Debug, Default)]
pub struct Engine {
    cfg: EngineConfig,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        Engine { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The result store this run consults, if any.
    fn store(&self) -> Option<&ResultStore> {
        match &self.cfg.result_cache {
            ResultCache::Off => None,
            ResultCache::Shared => Some(result_store::shared()),
            ResultCache::At(store) => Some(store),
        }
    }

    /// Runs the full `workloads × kinds` matrix at `scale` and returns the
    /// records in workload-major, prefetcher-minor order.
    ///
    /// ```
    /// use cbws_harness::{Engine, EngineConfig, PrefetcherKind};
    /// use cbws_workloads::{by_name, Scale};
    ///
    /// let engine = Engine::new(EngineConfig { jobs: 2, ..EngineConfig::default() });
    /// let run = engine.run(
    ///     Scale::Tiny,
    ///     &[by_name("stencil-default").unwrap()],
    ///     &[PrefetcherKind::Stride, PrefetcherKind::Cbws],
    /// );
    /// assert_eq!(run.records.len(), 2);
    /// assert_eq!(run.records[0].prefetcher, PrefetcherKind::Stride.name());
    /// ```
    pub fn run(
        &self,
        scale: Scale,
        workloads: &[&'static WorkloadSpec],
        kinds: &[PrefetcherKind],
    ) -> EngineRun {
        let job_count = workloads.len() * kinds.len();
        let requested = if self.cfg.jobs == 0 {
            detect_parallelism()
        } else {
            self.cfg.jobs
        };
        let workers = requested.max(1).min(job_count.max(1));
        let telemetry = &self.cfg.telemetry;
        let spans = &self.cfg.spans;
        // Route `trace_store.*` counters and load/generate spans to the
        // same sinks so cache behaviour shows up in `--metrics-out` dumps
        // and on the worker timelines.
        trace_store::shared().set_telemetry(telemetry.clone());
        trace_store::shared().set_spans(spans.clone());
        let store = self.store();
        if let Some(st) = store {
            st.set_telemetry(telemetry.clone());
            st.set_spans(spans.clone());
        }
        telemetry.set_gauge("engine.workers", workers as f64);
        telemetry.set_gauge("engine.jobs.total", job_count as f64);
        telemetry.set_gauge("engine.queue.depth", job_count as f64);

        let queue = JobQueue {
            cfg: &self.cfg,
            store,
            scale,
            workloads,
            kinds,
            config_hashes: kinds
                .iter()
                .map(|&kind| result_store::config_hash(kind, &self.cfg.system))
                .collect(),
            job_count,
            stream_threshold: self.cfg.resolved_stream_threshold(),
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            cancel: AtomicBool::new(false),
            heartbeat: Mutex::new(Heartbeat::new(Duration::from_secs(1))),
        };
        let engine_span = spans.begin("engine.run");
        engine_span.attr("jobs", job_count).attr("workers", workers);
        let start = Instant::now();
        let outputs: Vec<WorkerOutput> = if workers == 1 {
            // Inline on the calling thread: no spawn for one worker.
            let caller_lane = spans.current_lane();
            let output = queue.work(0);
            spans.adopt_lane(caller_lane);
            vec![output]
        } else {
            let queue = &queue;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|worker| s.spawn(move || queue.work(worker)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };
        let wall_seconds = start.elapsed().as_secs_f64();
        drop(engine_span);

        let cancelled = queue.cancel.load(Ordering::Relaxed);
        let mut indexed = Vec::with_capacity(job_count);
        let mut worker_stats = Vec::with_capacity(workers);
        for (done, stats) in outputs {
            indexed.extend(done);
            worker_stats.push(stats);
        }
        indexed.sort_unstable_by_key(|(i, _)| *i);
        debug_assert!(cancelled || indexed.iter().enumerate().all(|(pos, (i, _))| pos == *i));
        let run = EngineRun {
            records: indexed.into_iter().map(|(_, r)| r).collect(),
            workers,
            job_count,
            wall_seconds,
            utilization: utilization(&worker_stats, workers, wall_seconds),
            worker_stats,
            cancelled,
        };
        if telemetry.is_enabled() {
            for s in &run.worker_stats {
                let prefix = format!("engine.worker.{}", s.worker);
                telemetry.set_gauge(&format!("{prefix}.jobs"), s.jobs as f64);
                telemetry.set_gauge(&format!("{prefix}.busy_seconds"), s.busy_seconds);
                telemetry.set_gauge(&format!("{prefix}.idle_seconds"), s.idle_seconds);
            }
            telemetry.set_gauge("engine.wall_seconds", wall_seconds);
            telemetry.set_gauge("engine.jobs_per_sec", run.jobs_per_sec());
            telemetry.set_gauge("engine.utilization", run.utilization);
            for (name, secs) in run.phases() {
                telemetry.set_gauge(&format!("phase.{name}.seconds"), secs);
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbws_workloads::by_name;
    use std::path::PathBuf;

    fn picks(names: &[&str]) -> Vec<&'static WorkloadSpec> {
        names.iter().map(|n| by_name(n).unwrap()).collect()
    }

    /// A unique per-test scratch directory for result-store tests.
    fn scratch_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicU64;
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cbws-engine-store-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn serial_reference(
        scale: Scale,
        workloads: &[&'static WorkloadSpec],
        kinds: &[PrefetcherKind],
    ) -> Vec<RunRecord> {
        let sim = Simulator::new(SystemConfig::default());
        let mut records = Vec::new();
        for w in workloads {
            let trace = w.generate(scale);
            for &kind in kinds {
                records.push(sim.run(w.name, w.group == Group::MemoryIntensive, &trace, kind));
            }
        }
        records
    }

    #[test]
    fn engine_matches_serial_for_any_worker_count() {
        let workloads = picks(&["stencil-default", "histo-large", "nw"]);
        let kinds = [
            PrefetcherKind::None,
            PrefetcherKind::Sms,
            PrefetcherKind::CbwsSms,
        ];
        let serial = serial_reference(Scale::Tiny, &workloads, &kinds);
        for jobs in [1, 2, 8] {
            let run = Engine::new(EngineConfig {
                jobs,
                ..EngineConfig::default()
            })
            .run(Scale::Tiny, &workloads, &kinds);
            assert_eq!(run.job_count, serial.len());
            assert_eq!(run.records, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn stream_threshold_resolution() {
        let explicit = EngineConfig {
            stream_threshold_bytes: Some(7),
            ..EngineConfig::default()
        };
        assert_eq!(explicit.resolved_stream_threshold(), 7);
        let default = EngineConfig::default();
        match std::env::var(STREAM_THRESHOLD_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            Some(n) => assert_eq!(default.resolved_stream_threshold(), n),
            None => assert_eq!(
                default.resolved_stream_threshold(),
                DEFAULT_STREAM_THRESHOLD_BYTES
            ),
        }
    }

    /// With the threshold forced to zero every job replays straight from
    /// the store file through the read-ahead cursor; the records must be
    /// byte-identical to the in-memory path.
    #[test]
    fn streamed_replay_matches_in_memory_records() {
        // A workload no other test in this binary touches, so the store's
        // memoized stream-vs-memory decision for the key is ours alone.
        let workloads = picks(&["cholesky-tk29"]);
        let kinds = [PrefetcherKind::None, PrefetcherKind::CbwsSms];
        let serial = serial_reference(Scale::Tiny, &workloads, &kinds);
        let run = Engine::new(EngineConfig {
            jobs: 2,
            stream_threshold_bytes: Some(0),
            ..EngineConfig::default()
        })
        .run(Scale::Tiny, &workloads, &kinds);
        assert_eq!(run.records, serial);
        // The store decided to stream this key and remembers the decision:
        // the jobs above replayed from disk, not from a resident trace.
        let src = trace_store::shared().replay_source(workloads[0], Scale::Tiny, u64::MAX);
        assert!(src.is_streamed());
    }

    #[test]
    fn workers_clamped_to_job_count() {
        let workloads = picks(&["stencil-default"]);
        let run = Engine::new(EngineConfig {
            jobs: 64,
            ..EngineConfig::default()
        })
        .run(Scale::Tiny, &workloads, &[PrefetcherKind::None]);
        assert_eq!(run.workers, 1);
        assert_eq!(run.records.len(), 1);
    }

    #[test]
    fn empty_matrix_is_empty_run() {
        let run = Engine::default().run(Scale::Tiny, &[], &[]);
        assert!(run.records.is_empty());
        assert_eq!(run.job_count, 0);
    }

    #[test]
    fn engine_metrics_and_phases_recorded() {
        let telemetry = Telemetry::enabled_default();
        let workloads = picks(&["stencil-default", "nw"]);
        let run = Engine::new(EngineConfig {
            jobs: 2,
            telemetry: telemetry.clone(),
            ..EngineConfig::default()
        })
        .run(Scale::Tiny, &workloads, &[PrefetcherKind::Sms]);
        let counter = |p: &str| telemetry.with_metrics(|r| r.counter(p)).unwrap().unwrap();
        assert_eq!(counter("engine.jobs.completed"), 2);
        assert!(run.wall_seconds >= 0.0);
        assert!(run.utilization > 0.0 && run.utilization <= 1.0);
        // Without a result store the jobs only generate and simulate.
        let phases = run.phases();
        assert_eq!(
            phases.keys().collect::<Vec<_>>(),
            ["generate", "simulate"],
            "{phases:?}"
        );
        // Every phase total is exported as a gauge.
        let gauge = |p: &str| telemetry.with_metrics(|r| r.gauge(p)).unwrap().unwrap();
        for (name, secs) in &phases {
            assert_eq!(gauge(&format!("phase.{name}.seconds")), *secs);
        }
    }

    /// Phases are sub-intervals of each job's clock, so per worker they
    /// can never add up to more than its busy time.
    #[test]
    fn phase_seconds_fit_inside_busy_seconds() {
        let dir = scratch_dir("phases");
        let store = Arc::new(ResultStore::at(&dir));
        let workloads = picks(&["stencil-default", "histo-large", "nw"]);
        let kinds = [PrefetcherKind::None, PrefetcherKind::Sms];
        for (jobs, result_cache) in [
            (1, ResultCache::Off),
            (2, ResultCache::Off),
            (1, ResultCache::At(store.clone())),
            (2, ResultCache::At(store.clone())),
        ] {
            let run = Engine::new(EngineConfig {
                jobs,
                result_cache,
                ..EngineConfig::default()
            })
            .run(Scale::Tiny, &workloads, &kinds);
            for s in &run.worker_stats {
                let phase_sum: f64 = s.phases().map(|(_, secs)| secs).sum();
                assert!(
                    phase_sum <= s.busy_seconds,
                    "jobs = {jobs}: worker {} phases {phase_sum} > busy {}",
                    s.worker,
                    s.busy_seconds
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_stats_cover_every_job() {
        let workloads = picks(&["stencil-default", "histo-large", "nw"]);
        let run = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        })
        .run(
            Scale::Tiny,
            &workloads,
            &[PrefetcherKind::None, PrefetcherKind::Sms],
        );
        assert_eq!(run.worker_stats.len(), 2);
        assert_eq!(
            run.worker_stats
                .iter()
                .map(|s| s.worker)
                .collect::<Vec<_>>(),
            vec![0, 1]
        );
        let total_jobs: usize = run.worker_stats.iter().map(|s| s.jobs).sum();
        assert_eq!(total_jobs, run.job_count);
        for s in &run.worker_stats {
            assert_eq!(s.job_us.count() as usize, s.jobs);
            assert!(s.busy_seconds >= 0.0 && s.idle_seconds >= 0.0);
            if s.jobs > 0 {
                assert!(s.busy_seconds > 0.0);
            }
        }
    }

    /// One worker runs inline on the caller's thread, more run in spawned
    /// threads; both go through the same worker body, so everything but
    /// the timings has the same shape.
    #[test]
    fn one_shape_for_any_worker_count() {
        let workloads = picks(&["stencil-default", "histo-large", "nw"]);
        let kinds = [PrefetcherKind::None, PrefetcherKind::Sms];
        let serial = serial_reference(Scale::Tiny, &workloads, &kinds);
        for jobs in [1, 2, 8] {
            let spans = Spans::enabled();
            let main_lane = spans.lane("main");
            spans.adopt_lane(main_lane);
            let run = Engine::new(EngineConfig {
                jobs,
                spans: spans.clone(),
                ..EngineConfig::default()
            })
            .run(Scale::Tiny, &workloads, &kinds);
            assert_eq!(run.records, serial, "jobs = {jobs}");
            assert_eq!(
                run.phases().keys().collect::<Vec<_>>(),
                ["generate", "simulate"],
                "jobs = {jobs}"
            );
            assert_eq!(run.workers, jobs.min(run.job_count));
            assert_eq!(run.worker_stats.len(), run.workers, "jobs = {jobs}");
            let jobs_done: usize = run.worker_stats.iter().map(|s| s.jobs).sum();
            assert_eq!(jobs_done, run.job_count, "jobs = {jobs}");
            // Every job span sits on a `worker-N` lane.
            let lanes = spans.lanes();
            let records = spans.records();
            let job_spans: Vec<_> = records.iter().filter(|r| r.name.contains('/')).collect();
            assert_eq!(job_spans.len(), run.job_count, "jobs = {jobs}");
            for span in &job_spans {
                assert!(lanes[span.lane].starts_with("worker-"), "{span:?}");
            }
            assert!(records.iter().all(|r| r.dur_us.is_some()));
            if jobs == 1 {
                // The calling thread is bound back to its own lane.
                assert_eq!(spans.current_lane(), main_lane);
            }
        }
    }

    #[test]
    fn merged_runs_add_up() {
        let workloads = picks(&["stencil-default"]);
        let kinds = [PrefetcherKind::None, PrefetcherKind::Sms];
        let run = |jobs| {
            Engine::new(EngineConfig {
                jobs,
                ..EngineConfig::default()
            })
            .run(Scale::Tiny, &workloads, &kinds)
        };
        let (one, two) = (run(1), run(2));
        let wall = one.wall_seconds + two.wall_seconds;
        let simulate = one.phases()["simulate"] + two.phases()["simulate"];
        let worker0 = one.worker_stats[0].jobs + two.worker_stats[0].jobs;
        let mut total = EngineRun::default();
        total.merge(one);
        total.merge(two);
        assert_eq!(
            (total.job_count, total.records.len(), total.workers),
            (4, 4, 2)
        );
        assert_eq!(total.worker_stats.len(), 2);
        assert_eq!(total.worker_stats[0].jobs, worker0);
        assert_eq!(total.wall_seconds, wall);
        assert!((total.phases()["simulate"] - simulate).abs() < 1e-9);
        assert!(total.utilization > 0.0 && total.utilization <= 1.0);
    }

    #[test]
    fn cached_run_matches_fresh_and_counts_hits() {
        let dir = scratch_dir("cached");
        let store = Arc::new(ResultStore::at(&dir));
        let workloads = picks(&["stencil-default", "nw"]);
        let kinds = [PrefetcherKind::None, PrefetcherKind::Sms];
        let serial = serial_reference(Scale::Tiny, &workloads, &kinds);

        let cfg = |jobs| EngineConfig {
            jobs,
            result_cache: ResultCache::At(store.clone()),
            ..EngineConfig::default()
        };
        // First run: empty store, every job simulates and persists.
        let fresh = Engine::new(cfg(1)).run(Scale::Tiny, &workloads, &kinds);
        assert_eq!(fresh.store_hits(), 0);
        assert_eq!(fresh.store_misses(), fresh.job_count);
        assert_eq!(fresh.records, serial, "fresh cached run must equal serial");
        // The engine keys jobs from config hashes computed once per run;
        // they must address the same entries as `ResultKey::new`.
        let system = cfg(1).system;
        for (i, record) in serial.iter().enumerate() {
            let (w, kind) = (workloads[i / kinds.len()], kinds[i % kinds.len()]);
            let key = ResultKey::new(w, Scale::Tiny, kind, &system);
            assert_eq!(store.get(&key).as_ref(), Some(record), "{key:?}");
        }
        // The miss lookups and the writes are the `store` phase.
        let phases = fresh.phases();
        assert_eq!(
            phases.keys().collect::<Vec<_>>(),
            ["generate", "simulate", "store"],
            "{phases:?}"
        );

        // Second run (threaded path): every job served from the store,
        // byte-identical records, no simulate phase at all.
        let cached = Engine::new(cfg(2)).run(Scale::Tiny, &workloads, &kinds);
        assert_eq!(cached.store_hits(), cached.job_count);
        assert_eq!(cached.store_misses(), 0);
        assert_eq!(cached.records, serial, "stored records must round-trip");
        let phases = cached.phases();
        assert_eq!(phases.keys().collect::<Vec<_>>(), ["cached"], "{phases:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_executes_only_remaining_jobs() {
        let dir = scratch_dir("resume");
        let store = Arc::new(ResultStore::at(&dir));
        let workloads = picks(&["stencil-default", "histo-large", "nw"]);
        let all = [
            PrefetcherKind::None,
            PrefetcherKind::Stride,
            PrefetcherKind::Sms,
            PrefetcherKind::CbwsSms,
        ];
        let cfg = |jobs| EngineConfig {
            jobs,
            result_cache: ResultCache::At(store.clone()),
            ..EngineConfig::default()
        };
        // Simulate an interrupted sweep: only part of the matrix landed in
        // the store before the kill.
        let partial = Engine::new(cfg(1)).run(Scale::Tiny, &workloads, &all[..2]);
        assert_eq!(partial.store_misses(), 6);

        // The restarted full sweep serves the finished jobs from the store
        // and simulates exactly the remaining ones.
        let resumed = Engine::new(cfg(2)).run(Scale::Tiny, &workloads, &all);
        assert_eq!(resumed.job_count, 12);
        assert_eq!(resumed.store_hits(), 6, "finished jobs must not re-run");
        assert_eq!(resumed.store_misses(), 6, "only remaining jobs simulate");
        assert_eq!(
            resumed.records,
            serial_reference(Scale::Tiny, &workloads, &all)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_off_never_touches_the_store() {
        let workloads = picks(&["stencil-default"]);
        let run = Engine::new(EngineConfig::default()).run(
            Scale::Tiny,
            &workloads,
            &[PrefetcherKind::Sms],
        );
        assert_eq!(run.store_hits(), 0);
        assert_eq!(run.store_misses(), 0);
    }

    #[test]
    fn observer_sees_every_job_with_serial_indices() {
        let seen: Arc<Mutex<Vec<(usize, String, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let workloads = picks(&["stencil-default", "nw"]);
        let kinds = [PrefetcherKind::None, PrefetcherKind::Sms];
        let run = Engine::new(EngineConfig {
            jobs: 2,
            observer: Some(Arc::new(move |u: &JobUpdate<'_>| {
                sink.lock().unwrap().push((
                    u.job,
                    u.workload.to_string(),
                    u.record.prefetcher.clone(),
                ));
                true
            })),
            ..EngineConfig::default()
        })
        .run(Scale::Tiny, &workloads, &kinds);
        assert!(!run.cancelled);
        let mut seen = seen.lock().unwrap().clone();
        seen.sort();
        assert_eq!(seen.len(), run.job_count);
        // Indices are the serial order; workload/prefetcher derive from them.
        for (i, (job, workload, prefetcher)) in seen.iter().enumerate() {
            assert_eq!(*job, i);
            assert_eq!(*workload, workloads[i / kinds.len()].name);
            assert_eq!(*prefetcher, kinds[i % kinds.len()].name());
        }
    }

    #[test]
    fn observer_cancel_stops_the_run() {
        let workloads = picks(&["stencil-default", "histo-large", "nw"]);
        let kinds = [PrefetcherKind::None, PrefetcherKind::Sms];
        for jobs in [1, 2] {
            let done = Arc::new(AtomicUsize::new(0));
            let counter = done.clone();
            let telemetry = Telemetry::enabled_default();
            let run = Engine::new(EngineConfig {
                jobs,
                telemetry: telemetry.clone(),
                observer: Some(Arc::new(move |_: &JobUpdate<'_>| {
                    counter.fetch_add(1, Ordering::Relaxed) + 1 < 2
                })),
                ..EngineConfig::default()
            })
            .run(Scale::Tiny, &workloads, &kinds);
            assert!(run.cancelled, "jobs = {jobs}");
            assert!(
                run.records.len() < run.job_count,
                "jobs = {jobs}: cancellation must leave the matrix unfinished \
                 ({} of {} records)",
                run.records.len(),
                run.job_count
            );
            // The cancelling job is accounted like any other.
            let (completed, timed) = telemetry
                .with_metrics(|r| {
                    (
                        r.counter("engine.jobs.completed").unwrap(),
                        r.histogram("engine.job.us").unwrap().count(),
                    )
                })
                .unwrap();
            let worker_jobs: usize = run.worker_stats.iter().map(|s| s.jobs).sum();
            assert_eq!(
                [timed as usize, completed as usize, worker_jobs],
                [run.records.len(); 3],
                "jobs = {jobs}: engine.job.us count, engine.jobs.completed, \
                 worker jobs vs records"
            );
        }
    }

    #[test]
    fn store_writes_off_reads_but_never_persists() {
        let dir = scratch_dir("readonly");
        let store = Arc::new(ResultStore::at(&dir));
        let workloads = picks(&["stencil-default"]);
        let kinds = [PrefetcherKind::None, PrefetcherKind::Sms];
        let cfg = |store_writes| EngineConfig {
            jobs: 1,
            result_cache: ResultCache::At(store.clone()),
            store_writes,
            ..EngineConfig::default()
        };
        // Read-only against an empty store: every job misses, simulates,
        // and leaves nothing on disk.
        let first = Engine::new(cfg(false)).run(Scale::Tiny, &workloads, &kinds);
        assert_eq!(first.store_misses(), first.job_count);
        let entries = || std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(entries(), 0, "read-only mode must not write the store");
        // Populate normally, then read-only serves every job from disk.
        Engine::new(cfg(true)).run(Scale::Tiny, &workloads, &kinds);
        let populated = entries();
        assert!(populated > 0);
        let cached = Engine::new(cfg(false)).run(Scale::Tiny, &workloads, &kinds);
        assert_eq!(cached.store_hits(), cached.job_count);
        assert_eq!(entries(), populated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spans_record_one_lane_per_worker_with_job_and_idle_spans() {
        let spans = Spans::enabled();
        let workloads = picks(&["stencil-default", "nw"]);
        let run = Engine::new(EngineConfig {
            jobs: 2,
            spans: spans.clone(),
            ..EngineConfig::default()
        })
        .run(
            Scale::Tiny,
            &workloads,
            &[PrefetcherKind::None, PrefetcherKind::Sms],
        );
        assert_eq!(run.job_count, 4);
        let lanes = spans.lanes();
        assert!(lanes.iter().any(|l| l == "worker-0"), "{lanes:?}");
        assert!(lanes.iter().any(|l| l == "worker-1"), "{lanes:?}");
        let records = spans.records();
        // One top-level engine.run span, one span per job named
        // workload/prefetcher with attrs, plus idle gaps on each worker.
        assert_eq!(records.iter().filter(|r| r.name == "engine.run").count(), 1);
        let jobs: Vec<_> = records.iter().filter(|r| r.name.contains('/')).collect();
        assert_eq!(jobs.len(), 4, "{records:?}");
        assert!(jobs.iter().any(|r| r.name == "stencil-default/SMS"
            && r.attrs
                .iter()
                .any(|(k, v)| k == "workload" && v == "stencil-default")));
        assert!(records.iter().filter(|r| r.name == "idle").count() >= 2);
        // Every span closed by the end of the run.
        assert!(records.iter().all(|r| r.dur_us.is_some()));
    }
}
