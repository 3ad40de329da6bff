//! The executor: a persistent worker pool is the one way a batch runs.
//!
//! Spawning and joining a thread per touched shard *per batch* taxes
//! every request — on small batches the tax exceeds the work — so a
//! [`PooledExecutor`] owns the threads for the whole serving session:
//!
//! * **Workers are spawned once** per serving session, sized by
//!   [`PoolConfig::workers`] (default: the machine's available
//!   parallelism — more workers than cores cannot answer faster, they
//!   only add context switches). Batches are submitted as per-shard work
//!   items over an [`std::sync::mpsc`] channel the workers share.
//! * **Admission control** caps how many batches may be in flight at
//!   once ([`PoolConfig::max_inflight`]). Excess submitters wait at the
//!   gate instead of piling work into the queue, so a burst of writers
//!   or batch clients degrades latency smoothly instead of collapsing
//!   throughput.
//! * **Panics are contained to their batch**: a worker that panics
//!   evaluating a shard reports [`EngineError::WorkerPanicked`] for
//!   that batch — and the worker thread itself survives (the panic is
//!   caught), so the pool keeps serving subsequent batches.
//!
//! The executor serves anything that implements [`BatchServe`] —
//! [`crate::shard::ShardedRelation`] (plain borrows) and
//! [`crate::live::LiveRelation`] (per-shard read locks) in this crate,
//! `pitract-wal`'s `DurableLiveRelation` and `pitract-repl`'s `Follower`
//! by delegation. Every relation and both [`OutputMode`]s go through the
//! same routing, the same per-shard `eval_assigned` metering protocol,
//! and one fold in which each job carries its shard id explicitly.
//!
//! # What a batch costs the submitter
//!
//! The submitting thread is a batch's one serial section, so it does
//! O(|batch|) *words* of work and no per-query heap allocation outside
//! the result rows: **one pass** validates, plans and routes into
//! per-shard work lists ([`BatchServe::route_shards`]); the **workers
//! evaluate and translate** (a row-id job maps its own local ids to
//! global ids, after its shard guard dropped, under one id-map
//! acquisition); **one fold** drops each `(query, result, steps)` triple
//! into that query's slot. The job queue stays an [`std::sync::mpsc`]
//! channel on purpose: its receiver spins briefly before parking, and a
//! `Mutex<VecDeque>` + `Condvar` queue, which parks at once, measured
//! 10–25 % slower on small-batch reads (`CHANGES.md`, PR 15).

use crate::batch::{
    BatchAnswers, BatchReport, BatchRows, Exists, OutputMode, QueryBatch, Routing, RowIds,
    WorkerResults,
};
use crate::error::EngineError;
use crate::planner::QueryPlan;
use pitract_core::epoch::Epoch;
use pitract_obs::{Counter, Gauge, Histogram, Recorder};
use pitract_relation::SelectionQuery;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing and admission tuning for a [`WorkerPool`].
#[derive(Debug, Clone, Default)]
pub struct PoolConfig {
    /// Worker threads to spawn. `0` (the default) means the machine's
    /// available parallelism. A relation with fewer shards than cores
    /// gains nothing from extra workers, so sizing to
    /// `min(shard_count, cores)` is the sweet spot for a dedicated
    /// serving session.
    pub workers: usize,
    /// How many batches may be in flight at once; further submitters
    /// block at the admission gate until a running batch completes.
    /// `0` (the default) means `2 × workers` — enough to keep every
    /// worker busy while the next batch stages, without letting a
    /// burst queue unboundedly ahead of the workers.
    pub max_inflight: usize,
}

impl PoolConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    fn resolved_inflight(&self, workers: usize) -> usize {
        if self.max_inflight > 0 {
            self.max_inflight
        } else {
            workers.saturating_mul(2).max(1)
        }
    }
}

/// A unit of work shipped to a pool worker. Jobs are `'static`: they
/// capture `Arc`s to the relation, the queries, and the batch's result
/// collector — never borrows, so submitters and workers are decoupled.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A point-in-time summary of a serving session's pool: sizing, load,
/// and how much batches have had to wait at the admission gate
/// ([`PooledExecutor::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// The in-flight batch cap.
    pub max_inflight: usize,
    /// Batches currently admitted (running or merging).
    pub inflight: usize,
    /// Per-shard jobs submitted to the queue and not yet picked up by a
    /// worker — the queue depth.
    pub queued_jobs: usize,
    /// Batches admitted over the session's lifetime.
    pub batches_admitted: u64,
    /// How many of those found the gate full and had to wait.
    pub admission_waits: u64,
    /// Total time batches spent blocked at the admission gate.
    pub total_admission_wait: Duration,
}

impl PoolStats {
    /// Publish this summary into a recorder's registry so the pool's
    /// sizing and cumulative gate accounting appear in the same
    /// `MetricsSnapshot` as every live series (`pool_*` family).
    /// Monotonic totals are raised, never lowered, so repeated publishes
    /// keep the counters Prometheus-legal.
    pub fn publish(&self, recorder: &Recorder) {
        recorder.gauge("pool_workers").set(self.workers as i64);
        recorder
            .gauge("pool_max_inflight")
            .set(self.max_inflight as i64);
        recorder.gauge("pool_inflight").set(self.inflight as i64);
        recorder
            .gauge("pool_queued_jobs")
            .set(self.queued_jobs as i64);
        recorder
            .counter("pool_batches_admitted_total")
            .raise_to(self.batches_admitted);
        recorder
            .counter("pool_admission_waits_total")
            .raise_to(self.admission_waits);
        recorder
            .counter("pool_admission_wait_micros_total")
            .raise_to(u64::try_from(self.total_admission_wait.as_micros()).unwrap_or(u64::MAX));
    }
}

/// Interned `pool_*` instrument handles for one pool. All default to
/// no-op handles (a disabled [`Recorder`]), in which case every update
/// below is a single branch.
#[derive(Debug, Clone, Default)]
struct PoolInstruments {
    /// `pool_queued_jobs`: jobs submitted and not yet dequeued.
    queued_jobs: Gauge,
    /// `pool_inflight`: batches currently holding an admission slot.
    inflight: Gauge,
    /// `pool_admission_wait_micros`: per-batch time blocked at the gate.
    admission_wait: Histogram,
    /// `pool_batches_admitted_total`.
    admitted: Counter,
    /// `pool_admission_waits_total`: admissions that found the gate full.
    waits: Counter,
}

impl PoolInstruments {
    fn new(recorder: &Recorder) -> Self {
        PoolInstruments {
            queued_jobs: recorder.gauge("pool_queued_jobs"),
            inflight: recorder.gauge("pool_inflight"),
            admission_wait: recorder.histogram("pool_admission_wait_micros"),
            admitted: recorder.counter("pool_batches_admitted_total"),
            waits: recorder.counter("pool_admission_waits_total"),
        }
    }
}

/// The counting gate that caps in-flight batches, plus its wait
/// accounting.
#[derive(Debug)]
struct Admission {
    cap: usize,
    inflight: Mutex<usize>,
    freed: Condvar,
    admitted: AtomicU64,
    waits: AtomicU64,
    wait_nanos: AtomicU64,
    instruments: PoolInstruments,
}

impl Admission {
    /// Take one slot, blocking while the gate is full. Returns how long
    /// the caller waited (zero on the uncontended fast path).
    fn acquire(&self) -> Duration {
        let mut inflight = lock(&self.inflight);
        let mut waited = Duration::ZERO;
        if *inflight >= self.cap {
            let start = Instant::now();
            while *inflight >= self.cap {
                inflight = self
                    .freed
                    .wait(inflight)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            waited = start.elapsed();
            self.waits.fetch_add(1, Ordering::Relaxed);
            self.wait_nanos
                .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
            self.instruments.waits.inc();
        }
        *inflight += 1;
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.instruments.admitted.inc();
        self.instruments.inflight.inc();
        self.instruments.admission_wait.record_duration(waited);
        waited
    }

    fn release(&self) {
        *lock(&self.inflight) -= 1;
        self.instruments.inflight.dec();
        self.freed.notify_one();
    }
}

/// RAII admission slot: released when the batch finishes, even on an
/// error path.
struct AdmissionSlot<'a>(&'a Admission);

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// A persistent, sized pool of worker threads consuming boxed jobs from a
/// shared channel. Dropping the pool closes the channel and joins every
/// worker (pending jobs are drained first — a job's collector must
/// never be left waiting on work that silently vanished).
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    admission: Arc<Admission>,
    /// Jobs submitted and not yet dequeued by a worker.
    queued: Arc<AtomicUsize>,
}

impl WorkerPool {
    /// Spawn a pool per `config` (see [`PoolConfig`] for the defaults),
    /// uninstrumented.
    pub fn new(config: PoolConfig) -> Self {
        Self::new_observed(config, &Recorder::default())
    }

    /// Spawn a pool per `config`, publishing `pool_*` queue/admission
    /// series into `recorder` (a disabled recorder makes this identical
    /// to [`WorkerPool::new`]).
    pub fn new_observed(config: PoolConfig, recorder: &Recorder) -> Self {
        let instruments = PoolInstruments::new(recorder);
        let workers = config.resolved_workers();
        let max_inflight = config.resolved_inflight(workers);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let queued = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let queued = Arc::clone(&queued);
                let queued_gauge = instruments.queued_jobs.clone();
                #[allow(clippy::expect_used)]
                std::thread::Builder::new()
                    .name(format!("pitract-pool-{i}"))
                    // lint:allow(no-bare-thread-spawn): this IS the pool's one spawn point
                    .spawn(move || worker_loop(&receiver, &queued, &queued_gauge))
                    // lint:allow(no-unwrap-in-serving): construction-time; a pool that cannot spawn is fatal
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers: handles,
            admission: Arc::new(Admission {
                cap: max_inflight,
                inflight: Mutex::new(0),
                freed: Condvar::new(),
                admitted: AtomicU64::new(0),
                waits: AtomicU64::new(0),
                wait_nanos: AtomicU64::new(0),
                instruments,
            }),
            queued,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The in-flight batch cap.
    pub fn max_inflight(&self) -> usize {
        self.admission.cap
    }

    /// A point-in-time load and wait summary.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers.len(),
            max_inflight: self.admission.cap,
            inflight: *lock(&self.admission.inflight),
            queued_jobs: self.queued.load(Ordering::Relaxed),
            batches_admitted: self.admission.admitted.load(Ordering::Relaxed),
            admission_waits: self.admission.waits.load(Ordering::Relaxed),
            total_admission_wait: Duration::from_nanos(
                self.admission.wait_nanos.load(Ordering::Relaxed),
            ),
        }
    }

    /// Block until an admission slot frees, then take one. Returns the
    /// RAII slot and how long the gate held the caller.
    fn admit(&self) -> (AdmissionSlot<'_>, Duration) {
        let waited = self.admission.acquire();
        (AdmissionSlot(&self.admission), waited)
    }

    #[allow(clippy::expect_used)]
    fn submit(&self, job: Job) {
        self.queued.fetch_add(1, Ordering::Relaxed);
        self.admission.instruments.queued_jobs.inc();
        self.sender
            .as_ref()
            // lint:allow(no-unwrap-in-serving): the sender is Some until Drop takes it
            .expect("pool sender lives until drop")
            .send(job)
            // lint:allow(no-unwrap-in-serving): workers only exit after the channel closes
            .expect("pool workers live until drop");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel is the shutdown signal; workers drain what
        // is queued and exit on the disconnect.
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker body: pull jobs until the channel disconnects. Each job
/// already contains its own panic containment (see
/// [`PooledExecutor::dispatch`]), but a defensive `catch_unwind` here keeps a
/// worker alive even if a job's bookkeeping itself panicked — one
/// poisoned batch must never shrink the pool.
fn worker_loop(receiver: &Mutex<Receiver<Job>>, queued: &AtomicUsize, queued_gauge: &Gauge) {
    loop {
        // Hold the receiver lock only for the dequeue, never while
        // running the job.
        let job = match lock(receiver).recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        queued.fetch_sub(1, Ordering::Relaxed);
        queued_gauge.dec();
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// Where one batch's per-shard results rendezvous. The submitter waits
/// on the condvar until every job reported in (or one reported a
/// panic).
struct Collector<T> {
    state: Mutex<CollectorState<T>>,
    done: Condvar,
}

struct CollectorState<T> {
    /// One entry per finished shard job, in completion order (the fold
    /// is order-independent).
    results: Vec<WorkerResults<T>>,
    remaining: usize,
    panicked: Option<usize>,
}

impl<T> Collector<T> {
    fn new(jobs: usize) -> Self {
        Collector {
            state: Mutex::new(CollectorState {
                results: Vec::with_capacity(jobs),
                remaining: jobs,
                panicked: None,
            }),
            done: Condvar::new(),
        }
    }

    fn finish(&self, shard: usize, outcome: Option<WorkerResults<T>>) {
        let mut state = lock(&self.state);
        match outcome {
            Some(results) => state.results.push(results),
            None => state.panicked = state.panicked.or(Some(shard)),
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Wait for every job, then yield their results or the first
    /// panicked shard.
    fn wait(&self) -> Result<Vec<WorkerResults<T>>, EngineError> {
        let mut state = lock(&self.state);
        while state.remaining > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        match state.panicked {
            Some(shard) => Err(EngineError::WorkerPanicked { shard }),
            None => Ok(std::mem::take(&mut state.results)),
        }
    }
}

/// A relation the executor can serve: routing, per-shard evaluation,
/// and local→global id translation. Implemented by
/// [`crate::shard::ShardedRelation`] and [`crate::live::LiveRelation`]
/// here, and by `pitract-wal::DurableLiveRelation` and
/// `pitract-repl::Follower` by delegation to their inner live relation.
///
/// Relations that version their state additionally expose an epoch pin:
/// the executor calls [`BatchServe::pin_epoch`] once per batch before
/// any shard job runs, passes the pinned epoch to every `eval_shard`
/// call, and releases it with [`BatchServe::unpin_epoch`] when the
/// batch's results have folded. Immutable relations keep the defaults
/// (no pin, evaluation ignores `at`).
pub trait BatchServe: Send + Sync {
    /// Validate, plan, and shard-route a query slice into per-shard
    /// work lists — the form the executor dispatches as is.
    fn route_shards(&self, queries: &[SelectionQuery]) -> Result<Routing, EngineError>;

    /// [`BatchServe::route_shards`] viewed per query — the plans and, for
    /// each query, the shards it routes to — for callers that inspect
    /// routing rather than dispatch it.
    fn route(
        &self,
        queries: &[SelectionQuery],
    ) -> Result<(Vec<QueryPlan>, Vec<Vec<usize>>), EngineError> {
        let routing = self.route_shards(queries)?;
        let mut routed: Vec<Vec<usize>> = routing
            .shards_probed
            .into_iter()
            .map(Vec::with_capacity)
            .collect();
        for (shard, assigned) in routing.jobs {
            assigned.into_iter().for_each(|qi| routed[qi].push(shard));
        }
        Ok((routing.plans, routed))
    }

    /// Number of shards.
    fn shard_count(&self) -> usize;

    /// Pin the relation's current epoch for one batch, or `None` for
    /// relations with no version history (every shard job then reads
    /// at [`Epoch::LATEST`]). A returned epoch MUST be balanced by
    /// exactly one [`BatchServe::unpin_epoch`].
    fn pin_epoch(&self) -> Option<Epoch> {
        None
    }

    /// Release a pin taken by [`BatchServe::pin_epoch`].
    fn unpin_epoch(&self, _epoch: Epoch) {}

    /// One shard's assigned queries, evaluated in mode `M` at epoch
    /// `at` ([`Epoch::LATEST`] = current state): one `(query index,
    /// result, metered steps)` triple per assigned query, in ascending
    /// query order. Runs on a pool worker.
    fn eval_shard<M: OutputMode>(
        &self,
        shard: usize,
        at: Epoch,
        queries: &[SelectionQuery],
        assigned: &[usize],
    ) -> WorkerResults<M::Out>;

    /// [`BatchServe::eval_shard`] in [`Exists`] mode.
    fn eval_bool(
        &self,
        shard: usize,
        at: Epoch,
        queries: &[SelectionQuery],
        assigned: &[usize],
    ) -> WorkerResults<bool> {
        self.eval_shard::<Exists>(shard, at, queries, assigned)
    }

    /// [`BatchServe::eval_shard`] in [`RowIds`] mode (shard-local ids).
    fn eval_rows(
        &self,
        shard: usize,
        at: Epoch,
        queries: &[SelectionQuery],
        assigned: &[usize],
    ) -> WorkerResults<Vec<usize>> {
        self.eval_shard::<RowIds>(shard, at, queries, assigned)
    }

    /// Run `read` over `shard`'s local→global id map (indexed by local
    /// row id) under one acquisition of whatever guards it. The executor
    /// calls it once shard evaluation has returned, so a live relation
    /// never waits for its ids lock while holding a shard lock; its maps
    /// are append-only, which makes that late translation race-free.
    fn id_map<T>(&self, shard: usize, read: impl FnOnce(&[usize]) -> T) -> T;

    /// Translate shard-local row ids to global ids.
    fn global_ids(&self, shard: usize, locals: &[usize]) -> Vec<usize> {
        self.id_map(shard, |global| locals.iter().map(|&l| global[l]).collect())
    }
}

/// RAII epoch pin for one batch: taken after admission, released when
/// the batch's results have folded — on every path, including errors
/// and worker panics.
struct PinGuard<'a, R: BatchServe + ?Sized> {
    relation: &'a R,
    epoch: Option<Epoch>,
}

impl<'a, R: BatchServe + ?Sized> PinGuard<'a, R> {
    fn pin(relation: &'a R) -> Self {
        PinGuard {
            relation,
            epoch: relation.pin_epoch(),
        }
    }

    /// The epoch shard jobs evaluate at: the pinned one, or the
    /// [`Epoch::LATEST`] read-committed sentinel when the relation does
    /// not version.
    fn at(&self) -> Epoch {
        self.epoch.unwrap_or(Epoch::LATEST)
    }
}

impl<R: BatchServe + ?Sized> Drop for PinGuard<'_, R> {
    fn drop(&mut self) {
        if let Some(epoch) = self.epoch {
            self.relation.unpin_epoch(epoch);
        }
    }
}

/// The persistent serving session: a relation plus the worker pool that
/// answers its batches. Create one per served relation and keep it for
/// the session's lifetime; submit batches from any number of threads.
#[derive(Debug)]
pub struct PooledExecutor<R: BatchServe + 'static> {
    relation: Arc<R>,
    pool: WorkerPool,
    instruments: ExecInstruments,
}

/// Interned executor-level instrument handles (`pool_*` latency/panics
/// plus the `engine_*` report totals for batches served on this pool).
#[derive(Debug, Clone, Default)]
struct ExecInstruments {
    /// `pool_batch_micros`: service latency from admission to fold.
    batch_micros: Histogram,
    /// `pool_worker_panics_total`: shard evaluations that panicked.
    panics: Counter,
    /// `engine_batches_total` served on this executor.
    batches: Counter,
    /// `engine_queries_total` answered on this executor.
    queries: Counter,
    /// `engine_steps_total`: metered evaluation steps across batches.
    steps: Counter,
}

impl ExecInstruments {
    fn new(recorder: &Recorder) -> Self {
        ExecInstruments {
            batch_micros: recorder.histogram("pool_batch_micros"),
            panics: recorder.counter("pool_worker_panics_total"),
            batches: recorder.counter("engine_batches_total"),
            queries: recorder.counter("engine_queries_total"),
            steps: recorder.counter("engine_steps_total"),
        }
    }
}

impl<R: BatchServe + 'static> PooledExecutor<R> {
    /// A serving session over `relation` with a dedicated pool sized by
    /// `config`, uninstrumented.
    pub fn new(relation: Arc<R>, config: PoolConfig) -> Self {
        Self::new_observed(relation, config, &Recorder::default())
    }

    /// A serving session whose pool and per-batch accounting publish
    /// into `recorder` (`pool_*` and `engine_*` series). With a
    /// disabled recorder this is identical to [`PooledExecutor::new`]:
    /// no clock reads, no atomics touched.
    pub fn new_observed(relation: Arc<R>, config: PoolConfig, recorder: &Recorder) -> Self {
        PooledExecutor {
            relation,
            pool: WorkerPool::new_observed(config, recorder),
            instruments: ExecInstruments::new(recorder),
        }
    }

    /// A serving session with the default pool sizing, capped at the
    /// relation's shard count (extra workers could never be busy).
    pub fn with_default_pool(relation: Arc<R>) -> Self {
        let workers = PoolConfig::default()
            .resolved_workers()
            .min(relation.shard_count())
            .max(1);
        Self::new(
            relation,
            PoolConfig {
                workers,
                max_inflight: 0,
            },
        )
    }

    /// The served relation.
    pub fn relation(&self) -> &Arc<R> {
        &self.relation
    }

    /// The worker pool (for sizing introspection).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// A point-in-time pool summary: sizing, load, and cumulative
    /// admission-gate waits.
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Answer every query in the batch: one Boolean per query, in batch
    /// order, plus the aggregated cost report. Errors if any query fails
    /// schema validation, or with [`EngineError::WorkerPanicked`] if a
    /// shard evaluation panics.
    ///
    /// For a versioned relation the whole batch is answered at one
    /// pinned epoch, recorded in [`BatchReport::epoch`]: every shard job
    /// sees the same database instance even while writers land
    /// mid-batch.
    pub fn execute(&self, batch: &QueryBatch) -> Result<BatchAnswers, EngineError> {
        let (answers, report) = self.serve::<Exists>(batch)?;
        Ok(BatchAnswers { answers, report })
    }

    /// Enumerate the matching global row ids (ascending) for every
    /// query, answered at one pinned epoch like [`Self::execute`].
    pub fn execute_rows(&self, batch: &QueryBatch) -> Result<BatchRows, EngineError> {
        let (rows, report) = self.serve::<RowIds>(batch)?;
        Ok(BatchRows { rows, report })
    }

    /// Serve one batch in mode `M`: route, admit, pin, dispatch, fold,
    /// report — the one body behind both public entry points.
    fn serve<M: OutputMode>(
        &self,
        batch: &QueryBatch,
    ) -> Result<(Vec<M::Out>, BatchReport), EngineError> {
        let queries = batch.queries_shared();
        let routing = self.relation.route_shards(&queries)?;
        // Admission strictly before the pin: a batch waiting at the
        // gate must not force writers to retain versions for it.
        let (_slot, waited) = self.pool.admit();
        let served = self
            .instruments
            .batch_micros
            .is_enabled()
            .then(Instant::now);
        let pin = PinGuard::pin(self.relation.as_ref());
        let per_job = self.dispatch::<M>(&queries, routing.jobs, pin.at())?;
        // The one fold: every triple lands in its query's slot. Each
        // job translated its own row ids, so which shard it ran on and
        // the order jobs came back in no longer matter.
        let mut out: Vec<M::Out> = (0..queries.len()).map(|_| M::Out::default()).collect();
        let mut steps = vec![0u64; queries.len()];
        for (qi, part, spent) in per_job.into_iter().flatten() {
            M::fold(&mut out[qi], part);
            steps[qi] += spent;
        }
        M::seal(&mut out);
        let report = BatchReport::new(
            routing.plans,
            steps,
            routing.shards_probed,
            pin.epoch,
            waited,
        );
        if let Some(started) = served {
            self.instruments
                .batch_micros
                .record_duration(started.elapsed());
        }
        self.instruments.batches.inc();
        self.instruments.queries.add(report.per_query.len() as u64);
        self.instruments.steps.add(report.total_steps);
        Ok((out, report))
    }

    /// Submit one job per routed shard and wait for them at the
    /// collector. The caller holds the admission slot and the epoch pin
    /// for the batch. Returns each job's finished triples.
    fn dispatch<M: OutputMode>(
        &self,
        queries: &Arc<[SelectionQuery]>,
        jobs: Vec<(usize, Vec<usize>)>,
        at: Epoch,
    ) -> Result<Vec<WorkerResults<M::Out>>, EngineError> {
        let collector = Arc::new(Collector::new(jobs.len()));
        for (shard, assigned) in jobs {
            let relation = Arc::clone(&self.relation);
            let queries = Arc::clone(queries);
            let collector = Arc::clone(&collector);
            let panics = self.instruments.panics.clone();
            self.pool.submit(Box::new(move || {
                // Contain a panicking evaluation to this batch: report
                // the shard and keep the worker thread alive (one
                // poisoned query must not take down a serving process
                // that multiplexes many clients).
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut results = relation.eval_shard::<M>(shard, at, &queries, &assigned);
                    // `eval_shard` has returned, so its shard guard is
                    // gone: the id map may be taken now.
                    M::finish(relation.as_ref(), shard, &mut results);
                    results
                }))
                .ok();
                if outcome.is_none() {
                    panics.inc();
                }
                collector.finish(shard, outcome);
            }));
        }
        collector.wait()
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LiveRelation;
    use crate::shard::{ShardBy, ShardedRelation};
    use pitract_relation::{ColType, Relation, Schema, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn relation(n: i64) -> Relation {
        let schema = Schema::new(&[("id", ColType::Int), ("city", ColType::Str)]);
        let rows = (0..n)
            .map(|i| vec![Value::Int(i), Value::str(format!("city{}", i % 10))])
            .collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    fn mixed_batch(n: i64) -> QueryBatch {
        QueryBatch::new((0..60i64).map(|k| match k % 3 {
            0 => pitract_relation::SelectionQuery::point(0, (k * 37) % (n + 20)),
            1 => pitract_relation::SelectionQuery::range_closed(0, k * 11, k * 11 + 25),
            _ => pitract_relation::SelectionQuery::and(
                pitract_relation::SelectionQuery::point(1, format!("city{}", k % 10).as_str()),
                pitract_relation::SelectionQuery::range_closed(0, k * 7, k * 7 + 40),
            ),
        }))
    }

    /// Answers and row ids against the scan oracle at every shard
    /// count, and the report's metering against a by-hand
    /// [`BatchServe::eval_bool`] of the same routing on this thread:
    /// dispatch and merge add no steps and lose none.
    #[test]
    fn pooled_answers_match_scan_oracle_at_every_shard_count() {
        let n = 500i64;
        let rel = relation(n);
        let batch = mixed_batch(n);
        for shards in [1, 2, 3, 8] {
            let sr = Arc::new(
                ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, shards, &[0, 1]).unwrap(),
            );
            let exec = PooledExecutor::with_default_pool(Arc::clone(&sr));
            let got = exec.execute(&batch).unwrap();
            for (q, &ans) in batch.queries().iter().zip(&got.answers) {
                assert_eq!(ans, rel.eval_scan(q), "shards={shards} {q:?}");
            }
            let (_, routed) = sr.route(batch.queries()).unwrap();
            for (qi, cost) in got.report.per_query.iter().enumerate() {
                let by_hand: u64 = routed[qi]
                    .iter()
                    .map(|&s| sr.eval_bool(s, Epoch::LATEST, batch.queries(), &[qi])[0].2)
                    .sum();
                assert_eq!(cost.steps, by_hand, "shards={shards} query {qi}");
            }
            let got = exec.execute_rows(&batch).unwrap();
            for (q, ids) in batch.queries().iter().zip(&got.rows) {
                assert_eq!(ids.len(), rel.count_where(q), "shards={shards} {q:?}");
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
                for &gid in ids {
                    assert!(q.matches(sr.row(gid).unwrap()), "{q:?} id {gid}");
                }
            }
        }
    }

    /// A relation that routes like its inner [`ShardedRelation`] but
    /// hands its jobs out in descending shard order.
    struct ReversedJobs(ShardedRelation);

    impl BatchServe for ReversedJobs {
        fn route_shards(&self, queries: &[SelectionQuery]) -> Result<Routing, EngineError> {
            let mut routing = self.0.route_shards(queries)?;
            routing.jobs.reverse();
            Ok(routing)
        }

        fn shard_count(&self) -> usize {
            self.0.shard_count()
        }

        fn eval_shard<M: OutputMode>(
            &self,
            shard: usize,
            at: Epoch,
            queries: &[SelectionQuery],
            assigned: &[usize],
        ) -> WorkerResults<M::Out> {
            self.0.eval_shard::<M>(shard, at, queries, assigned)
        }

        fn id_map<T>(&self, shard: usize, read: impl FnOnce(&[usize]) -> T) -> T {
            self.0.id_map(shard, read)
        }
    }

    /// Regression: the row-id merge once paired each per-shard result
    /// with the query's routed shard list by *position*, which
    /// translates local row ids through the wrong shard's id map
    /// whenever jobs do not come back in ascending shard order — an
    /// invariant nothing in the routing contract pins. Every job carries
    /// its own shard id and translates its own results, so a relation
    /// that hands jobs out in descending shard order must change
    /// nothing: not the rows, not the answers, not the report.
    #[test]
    fn merge_carries_shard_ids_so_routed_order_cannot_mistranslate() {
        let rel = relation(120);
        let sr = ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, 3, &[0, 1]).unwrap();
        // No shard-key conjunct: every query fans out to all 3 shards.
        let batch =
            QueryBatch::new((0..10).map(|k| SelectionQuery::point(1, format!("city{k}").as_str())));
        let ascending = PooledExecutor::with_default_pool(Arc::new(sr.clone()));
        let descending = PooledExecutor::with_default_pool(Arc::new(ReversedJobs(sr.clone())));
        let (_, routed) = descending.relation().route(batch.queries()).unwrap();
        assert!(routed.iter().all(|shards| shards == &[2, 1, 0]));
        let expect = ascending.execute_rows(&batch).unwrap();
        let got = descending.execute_rows(&batch).unwrap();
        assert!(got.report.per_query.iter().all(|c| c.shards_probed == 3));
        assert_eq!(got.rows, expect.rows);
        assert_eq!(got.report.total_steps, expect.report.total_steps);
        for (q, ids) in batch.queries().iter().zip(&got.rows) {
            assert_eq!(ids.len(), 12, "{q:?}");
            assert!(ids.iter().all(|&gid| q.matches(sr.row(gid).unwrap())));
        }
        assert_eq!(
            descending.execute(&batch).unwrap().answers,
            ascending.execute(&batch).unwrap().answers
        );
    }

    /// The executor is nothing but routing, per-shard evaluation and
    /// translation: one mixed batch (every access path, a contradiction
    /// that routes nowhere, rows deleted under the ids it reports)
    /// served through the pool must equal — report field for report
    /// field — what `route` + `eval_bool` / `eval_rows` + `global_ids`
    /// give by hand on this thread.
    #[test]
    fn served_batch_equals_by_hand_route_eval_translate() {
        let lr = LiveRelation::build(&relation(600), ShardBy::Hash { col: 0 }, 4, &[0]).unwrap();
        for gid in (0..600).step_by(7) {
            lr.delete(gid).unwrap();
        }
        lr.insert(vec![Value::Int(700), Value::str("city3")])
            .unwrap();
        let lr = Arc::new(lr);
        let mut queries = mixed_batch(600).queries().to_vec();
        queries.push(SelectionQuery::point(1, "city3")); // scan, 4 shards
        queries.push(SelectionQuery::and(
            SelectionQuery::point(0, 10i64),
            SelectionQuery::point(0, 11i64),
        )); // contradictory shard-key points: routes nowhere
        let batch = QueryBatch::new(queries);
        let exec = PooledExecutor::new(
            Arc::clone(&lr),
            PoolConfig {
                workers: 2,
                max_inflight: 2,
            },
        );
        let bools = exec.execute(&batch).unwrap();
        let rows = exec.execute_rows(&batch).unwrap();

        let (plans, routed) = lr.route(batch.queries()).unwrap();
        let pin = lr.pin();
        assert_eq!(bools.report.epoch, Some(pin.epoch()));
        assert_eq!(rows.report.epoch, Some(pin.epoch()));
        for (qi, q) in batch.queries().iter().enumerate() {
            let (mut hit, mut ids) = (false, Vec::new());
            let (mut bool_steps, mut row_steps) = (0, 0);
            for &s in &routed[qi] {
                let (_, h, spent) = lr.eval_bool(s, pin.epoch(), batch.queries(), &[qi])[0];
                hit |= h;
                bool_steps += spent;
                let (_, locals, spent) = lr
                    .eval_rows(s, pin.epoch(), batch.queries(), &[qi])
                    .remove(0);
                ids.extend(lr.global_ids(s, &locals));
                row_steps += spent;
            }
            ids.sort_unstable();
            assert_eq!(bools.answers[qi], hit, "{q:?}");
            assert_eq!(rows.rows[qi], ids, "{q:?}");
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "ascending, no duplicates"
            );
            for (report, steps) in [(&bools.report, bool_steps), (&rows.report, row_steps)] {
                let cost = &report.per_query[qi];
                assert_eq!(cost.plan, plans[qi], "{q:?}");
                assert_eq!(cost.steps, steps, "{q:?}");
                assert_eq!(cost.shards_probed, routed[qi].len(), "{q:?}");
            }
        }
        for report in [&bools.report, &rows.report] {
            assert_eq!(report.per_query.len(), batch.len());
            assert_eq!(
                report.total_steps,
                report.per_query.iter().map(|c| c.steps).sum::<u64>()
            );
            assert_eq!(report.admission_wait, Some(Duration::ZERO));
        }
        // The contradiction was shipped nowhere and cost nothing.
        let last = batch.len() - 1;
        assert_eq!(bools.report.per_query[last].shards_probed, 0);
        assert_eq!(bools.report.per_query[last].steps, 0);
        assert!(!bools.answers[last]);
        assert!(rows.rows[last].is_empty());
    }

    #[test]
    fn pooled_serves_a_live_relation_concurrently_with_writers() {
        let lr = Arc::new(
            LiveRelation::build(&relation(400), ShardBy::Hash { col: 0 }, 4, &[0, 1]).unwrap(),
        );
        let exec = PooledExecutor::with_default_pool(Arc::clone(&lr));
        // Queries over the stable region [0, 400) are immune to the
        // concurrent inserts of keys >= 10_000.
        let batch =
            QueryBatch::new((0..50i64).map(|k| pitract_relation::SelectionQuery::point(0, k * 7)));
        std::thread::scope(|scope| {
            let writer_lr = Arc::clone(&lr);
            scope.spawn(move || {
                for i in 0..200i64 {
                    writer_lr
                        .insert(vec![Value::Int(10_000 + i), Value::str("w")])
                        .unwrap();
                }
            });
            for _ in 0..20 {
                let got = exec.execute(&batch).unwrap();
                assert!(got.answers.iter().all(|&a| a), "stable region always hits");
            }
        });
        let rows = exec.execute_rows(&batch).unwrap();
        assert!(rows.rows.iter().all(|ids| ids.len() == 1));
    }

    /// The observed constructor publishes the pool and engine series
    /// into the recorder, and the disabled default keeps them absent.
    #[test]
    fn observed_executor_publishes_pool_and_engine_series() {
        let recorder = Recorder::new();
        let mut lr =
            LiveRelation::build(&relation(300), ShardBy::Hash { col: 0 }, 3, &[0, 1]).unwrap();
        lr.set_recorder(&recorder);
        let lr = Arc::new(lr);
        let exec = PooledExecutor::new_observed(
            Arc::clone(&lr),
            PoolConfig {
                workers: 2,
                max_inflight: 2,
            },
            &recorder,
        );
        let batch = mixed_batch(300);
        let got = exec.execute(&batch).unwrap();
        lr.publish_metrics();
        let snap = recorder.snapshot();
        let queries = got.answers.len() as u64;
        assert_eq!(snap.counter("engine_batches_total"), Some(1));
        assert_eq!(snap.counter("engine_queries_total"), Some(queries));
        assert_eq!(
            snap.counter("engine_steps_total"),
            Some(got.report.total_steps)
        );
        assert_eq!(snap.counter("pool_batches_admitted_total"), Some(1));
        assert_eq!(snap.histogram("pool_batch_micros").unwrap().count, 1);
        assert_eq!(
            snap.histogram("pool_admission_wait_micros").unwrap().count,
            1
        );
        assert_eq!(snap.gauge("pool_inflight"), Some(0), "batch finished");
        assert_eq!(snap.gauge("pool_workers"), None, "publish() not called");
        exec.stats().publish(&recorder);
        assert_eq!(recorder.snapshot().gauge("pool_workers"), Some(2));
        // Every routed query ticked exactly one plan-path counter.
        let plan_total: u64 = [
            "point-probe",
            "range-probe",
            "index-nested-loop",
            "full-scan",
        ]
        .iter()
        .filter_map(|p| snap.counter(&format!("engine_plans_total{{path=\"{p}\"}}")))
        .sum();
        assert_eq!(plan_total, queries);
        assert!(snap.gauge("mvcc_current_epoch").is_some());

        // The unobserved twin records nothing.
        let silent = PooledExecutor::new(
            lr,
            PoolConfig {
                workers: 2,
                max_inflight: 2,
            },
        );
        silent.execute(&batch).unwrap();
        assert_eq!(
            recorder.snapshot().counter("engine_batches_total"),
            Some(1),
            "disabled recorder leaves the registry untouched"
        );
    }

    /// A serving double whose evaluation can panic on demand and which
    /// records evaluation concurrency — the fixture for the lifecycle
    /// and admission tests.
    #[derive(Debug)]
    struct Probe {
        shards: usize,
        panic_on_shard: Option<usize>,
        evaluating: AtomicUsize,
        peak: AtomicUsize,
        delay: std::time::Duration,
    }

    impl Probe {
        fn new(shards: usize) -> Self {
            Probe {
                shards,
                panic_on_shard: None,
                evaluating: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                delay: std::time::Duration::ZERO,
            }
        }

        fn enter(&self) {
            let now = self.evaluating.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
        }

        fn exit(&self) {
            self.evaluating.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl BatchServe for Probe {
        fn route_shards(&self, queries: &[SelectionQuery]) -> Result<Routing, EngineError> {
            // Every query routes to every shard; plans are irrelevant to
            // these tests, so reuse the real planner on a scan.
            let all: Vec<usize> = (0..queries.len()).collect();
            Ok(Routing {
                plans: queries
                    .iter()
                    .map(|q| crate::planner::Planner::plan(&[], 1, q))
                    .collect(),
                jobs: (0..self.shards).map(|s| (s, all.clone())).collect(),
                shards_probed: vec![self.shards; queries.len()],
            })
        }

        fn shard_count(&self) -> usize {
            self.shards
        }

        fn eval_shard<M: OutputMode>(
            &self,
            shard: usize,
            _at: Epoch,
            _queries: &[SelectionQuery],
            assigned: &[usize],
        ) -> WorkerResults<M::Out> {
            self.enter();
            if self.panic_on_shard == Some(shard) {
                self.exit();
                panic!("probe shard {shard} poisoned");
            }
            let out = assigned
                .iter()
                .map(|&qi| (qi, M::Out::default(), 1))
                .collect();
            self.exit();
            out
        }

        fn id_map<T>(&self, _shard: usize, read: impl FnOnce(&[usize]) -> T) -> T {
            read(&[]) // every result is empty: nothing to translate
        }
    }

    fn one_query_batch() -> QueryBatch {
        QueryBatch::new([pitract_relation::SelectionQuery::point(0, 1i64)])
    }

    #[test]
    fn worker_panic_is_typed_and_does_not_poison_the_pool() {
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut probe = Probe::new(3);
        probe.panic_on_shard = Some(1);
        let exec = PooledExecutor::new(
            Arc::new(probe),
            PoolConfig {
                workers: 2,
                max_inflight: 2,
            },
        );
        let err = exec.execute(&one_query_batch()).unwrap_err();
        assert_eq!(err, EngineError::WorkerPanicked { shard: 1 });

        // The pool survived: subsequent batches on the same executor
        // still run to completion with typed errors — with only 2
        // workers, 4 more 3-shard batches (12 jobs) would deadlock if
        // the first panic had killed a worker thread.
        for _ in 0..4 {
            let err = exec.execute(&one_query_batch()).unwrap_err();
            assert_eq!(err, EngineError::WorkerPanicked { shard: 1 });
        }
        std::panic::set_hook(prev_hook);
        assert_eq!(exec.pool().workers(), 2, "no worker thread died");
    }

    #[test]
    fn panicked_batch_does_not_block_healthy_batches_after_it() {
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let sr = Arc::new(
            ShardedRelation::build(&relation(100), ShardBy::Hash { col: 0 }, 2, &[0]).unwrap(),
        );
        let mut probe = Probe::new(2);
        probe.panic_on_shard = Some(0);
        let poisoned = PooledExecutor::new(
            Arc::new(probe),
            PoolConfig {
                workers: 1,
                max_inflight: 1,
            },
        );
        let err = poisoned.execute(&one_query_batch()).unwrap_err();
        assert!(matches!(err, EngineError::WorkerPanicked { .. }));
        std::panic::set_hook(prev_hook);
        // A fresh healthy session still works end to end (and the
        // poisoned session's pool shut down cleanly on drop).
        drop(poisoned);
        let exec = PooledExecutor::with_default_pool(sr);
        let got = exec
            .execute(&QueryBatch::new([pitract_relation::SelectionQuery::point(
                0, 5i64,
            )]))
            .unwrap();
        assert_eq!(got.answers, vec![true]);
    }

    #[test]
    fn admission_gate_caps_in_flight_batches() {
        let mut probe = Probe::new(1);
        probe.delay = std::time::Duration::from_millis(5);
        let probe = Arc::new(probe);
        let exec = Arc::new(PooledExecutor::new(
            Arc::clone(&probe),
            PoolConfig {
                workers: 4,
                max_inflight: 1,
            },
        ));
        // 6 submitters race 1 admission slot on a 1-shard relation: at
        // most one evaluation can ever be in flight.
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let exec = Arc::clone(&exec);
                scope.spawn(move || {
                    for _ in 0..3 {
                        exec.execute(&one_query_batch()).unwrap();
                    }
                });
            }
        });
        assert_eq!(
            probe.peak.load(Ordering::SeqCst),
            1,
            "admission cap 1 admits one batch at a time"
        );

        // Re-run with the gate opened: concurrency is actually possible
        // (sanity that the fixture can observe > 1).
        let mut probe = Probe::new(4);
        probe.delay = std::time::Duration::from_millis(5);
        let probe = Arc::new(probe);
        let exec = Arc::new(PooledExecutor::new(
            Arc::clone(&probe),
            PoolConfig {
                workers: 4,
                max_inflight: 8,
            },
        ));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let exec = Arc::clone(&exec);
                scope.spawn(move || {
                    for _ in 0..3 {
                        exec.execute(&one_query_batch()).unwrap();
                    }
                });
            }
        });
        assert!(
            probe.peak.load(Ordering::SeqCst) > 1,
            "with the gate open, shard jobs do overlap"
        );
    }

    #[test]
    fn empty_batch_is_a_no_op_and_invalid_queries_are_typed() {
        let sr = Arc::new(
            ShardedRelation::build(&relation(10), ShardBy::Hash { col: 0 }, 2, &[0]).unwrap(),
        );
        let exec = PooledExecutor::with_default_pool(sr);
        let got = exec.execute(&QueryBatch::new([])).unwrap();
        assert!(got.answers.is_empty());
        assert_eq!(got.report.total_steps, 0);
        let err = exec
            .execute(&QueryBatch::new([pitract_relation::SelectionQuery::point(
                7, 1i64,
            )]))
            .unwrap_err();
        assert!(
            matches!(err, EngineError::InvalidQuery { index: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("query 0"), "{err}");
    }

    #[test]
    fn pool_stats_count_admissions_and_gate_waits() {
        let mut probe = Probe::new(1);
        probe.delay = std::time::Duration::from_millis(2);
        let exec = Arc::new(PooledExecutor::new(
            Arc::new(probe),
            PoolConfig {
                workers: 2,
                max_inflight: 1,
            },
        ));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let exec = Arc::clone(&exec);
                scope.spawn(move || {
                    for _ in 0..3 {
                        exec.execute(&one_query_batch()).unwrap();
                    }
                });
            }
        });
        let stats = exec.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.max_inflight, 1);
        assert_eq!(stats.batches_admitted, 12);
        assert_eq!(stats.inflight, 0, "every slot released");
        assert_eq!(stats.queued_jobs, 0, "every job drained");
        assert!(
            stats.admission_waits > 0,
            "4 submitters racing a 1-slot gate must have waited at least once"
        );
        assert!(stats.total_admission_wait > Duration::ZERO);
        // Per-batch wait is also surfaced in the report.
        let got = exec.execute(&one_query_batch()).unwrap();
        assert_eq!(got.report.admission_wait, Some(Duration::ZERO));
    }

    #[test]
    fn pooled_batches_pin_one_epoch_and_release_it() {
        let lr = Arc::new(
            LiveRelation::build(&relation(50), ShardBy::Hash { col: 0 }, 2, &[0, 1]).unwrap(),
        );
        let exec = PooledExecutor::with_default_pool(Arc::clone(&lr));
        let batch = QueryBatch::new([pitract_relation::SelectionQuery::point(0, 5i64)]);

        let got = exec.execute(&batch).unwrap();
        assert_eq!(
            got.report.epoch,
            Some(Epoch::ZERO),
            "fresh build is epoch 0"
        );
        lr.insert(vec![Value::Int(1000), Value::str("w")]).unwrap();
        lr.insert(vec![Value::Int(1001), Value::str("w")]).unwrap();
        let got = exec.execute_rows(&batch).unwrap();
        assert_eq!(
            got.report.epoch,
            Some(Epoch::new(2)),
            "epoch counts applied updates"
        );

        // Pins are balanced: nothing left registered, nothing retained.
        let stats = lr.version_stats();
        assert_eq!(stats.pins, 0, "executor released every batch pin");
        assert_eq!(stats.retained_versions, 0);

        // An immutable sharded relation has no epoch clock to report.
        let sr = Arc::new(
            ShardedRelation::build(&relation(50), ShardBy::Hash { col: 0 }, 2, &[0, 1]).unwrap(),
        );
        let exec = PooledExecutor::with_default_pool(sr);
        let got = exec.execute(&batch).unwrap();
        assert_eq!(got.report.epoch, None);
    }

    #[test]
    fn default_pool_sizes_to_min_of_cores_and_shards() {
        let sr = Arc::new(
            ShardedRelation::build(&relation(10), ShardBy::Hash { col: 0 }, 2, &[0]).unwrap(),
        );
        let exec = PooledExecutor::with_default_pool(sr);
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        assert_eq!(exec.pool().workers(), cores.clamp(1, 2));
        assert_eq!(exec.pool().max_inflight(), exec.pool().workers() * 2);
    }
}
