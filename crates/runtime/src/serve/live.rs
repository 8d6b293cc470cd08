//! The threaded serving twin: real threads, real queues, wall-clock
//! pacing — with the discrete-event engine as its oracle.
//!
//! This is the **one** module in the workspace allowed to read the
//! wall clock (`[rule.wallclock] sanctioned` in `lint.toml`; see
//! `docs/LIVE_SERVING.md` for the full justification). Everything it
//! does with that clock is bounded by a contract:
//!
//! * A **front-door thread** paces the seeded trace onto wall-clock
//!   time (`time_scale` wall-ms per simulated ms), runs placement and
//!   admission control per request exactly as the engine's online
//!   admission does, and records every *realized* admission instant.
//! * **Shard worker threads** each drive one shard's `ShardCore` —
//!   the sans-IO state machine the engine drives too, so queueing,
//!   batch selection, launch pricing (service memo, compile charge,
//!   degrade/stall windows, reconfiguration penalty) and the records
//!   are shared code, not a copy. The worker only adds what a real
//!   thread needs: it drains its MPSC queue into the core, sleeps
//!   through the transport gate and the *modeled* batch duration
//!   scaled to wall time, keeps the front door's atomic gauges, and
//!   feeds the core its fault-window edges in time order. The wall
//!   clock enters only through pacing and start/completion instants;
//!   every recorded cost is a modeled value.
//! * A modeled [`TransportModel`] charges per-hop latency/bandwidth
//!   to request and response envelopes; the engine sees no transport,
//!   so live latencies exceed replay latencies by at most one round
//!   trip plus scheduler jitter.
//!
//! The oracle contract (enforced by `serve/oracle.rs` and
//! `tests/serve_live.rs`): replaying the recorded realized trace
//! through the discrete-event engine reproduces the live run's
//! *discrete outcomes* — served/rejected counts and id sets, per-shard
//! routing, per-(shard, network) batch partition, compiled plans and
//! reconfiguration counters — exactly, for
//! timing-robust configurations (trace-deterministic placements such
//! as [`RoundRobin`](super::RoundRobin) /
//! [`PlatformAffinity`](super::PlatformAffinity), and policies whose
//! partition is timing-independent: [`Immediate`](super::Immediate),
//! [`SizeK`](super::SizeK)). Load-adaptive placements
//! (e.g. [`LeastBacklog`](super::LeastBacklog)) legitimately read
//! racy live state and are checked by conservation, not exactness.
//! Latency statistics get tolerance bands, never equality.
//!
//! Live fault support is deliberately the timing-only subset:
//! [`FaultKind::Degrade`] and [`FaultKind::StallCompile`] windows
//! stretch time without changing any discrete outcome. Crash and
//! transient-compile-fail faults reroute work and are engine-only —
//! [`LiveServer::new`] rejects them. A worker applies each window edge
//! strictly before the launch instant, the engine's same-instant
//! order (fault events fire after arrivals, completions and timers).

use super::engine::admit_online;
use super::fault::FaultKind;
use super::load::Request;
use super::placement::{Placement, ViewGauges};
use super::policy::BatchPolicy;
use super::shard::{close_fleet, Ready, ShardCore, WindowSchedule};
use super::transport::TransportModel;
use super::{EngineConfig, ServeCluster, ServeRun};
use crate::backend::RuntimeError;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the front door issues requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveMode {
    /// Pace the trace's arrival instants onto wall time (scaled).
    /// Arrivals never react to completions — the same pressure the
    /// open-loop generator models.
    OpenLoop,
    /// Issue-on-completion under a concurrency window: the next
    /// request is admitted as soon as fewer than `window` admitted
    /// requests are outstanding. Trace arrival instants are ignored;
    /// realized instants are recorded as always. The window must keep
    /// a size-triggered policy fed (`window >= k × shards` for
    /// `SizeK`), or the run deadlocks until the watchdog trips.
    ClosedLoop {
        /// Maximum admitted-but-uncompleted requests.
        window: usize,
    },
}

/// Knobs specific to the live twin (everything else — cache budget,
/// compile cost, faults — comes from the shared [`EngineConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Wall milliseconds per simulated millisecond. `0.02` replays a
    /// 1-second simulated horizon in 20 wall-ms. Must be positive and
    /// finite.
    pub time_scale: f64,
    /// Modeled inter-node transport applied to request/response
    /// envelopes.
    pub transport: TransportModel,
    /// Open- or closed-loop drive.
    pub mode: LiveMode,
    /// Admission stamps are floored to a multiple of this quantum (in
    /// simulated ms; `0.0` = full resolution). A coarse quantum makes
    /// simultaneous admissions — identical recorded stamps — routine
    /// rather than astronomically unlikely, which is exactly what the
    /// oracle's tie-break contract is tested against.
    pub stamp_quantum_ms: f64,
}

impl LiveConfig {
    /// A config with the given time scale, no transport, open-loop
    /// drive and full stamp resolution.
    #[must_use]
    pub fn new(time_scale: f64) -> Self {
        LiveConfig {
            time_scale,
            transport: TransportModel::none(),
            mode: LiveMode::OpenLoop,
            stamp_quantum_ms: 0.0,
        }
    }

    /// This config with a transport model.
    #[must_use]
    pub fn with_transport(mut self, transport: TransportModel) -> Self {
        self.transport = transport;
        self
    }

    /// This config with a drive mode.
    #[must_use]
    pub fn with_mode(mut self, mode: LiveMode) -> Self {
        self.mode = mode;
        self
    }

    /// This config with a stamp quantum.
    #[must_use]
    pub fn with_stamp_quantum(mut self, quantum_ms: f64) -> Self {
        self.stamp_quantum_ms = quantum_ms;
        self
    }
}

/// Everything a live run produced.
#[derive(Debug)]
pub struct LiveReport {
    /// Every admission the front door performed, in admission order,
    /// with *realized* (wall-clock-derived, scaled to simulated ms)
    /// arrival stamps and deadlines re-offset from them. Sorted and
    /// replayable through [`ServeSim`](super::ServeSim) — rejected
    /// requests are included, since the replay re-derives rejection.
    pub realized_trace: Vec<Request>,
    /// The run in the engine's own result shape: per-shard reports
    /// (modeled costs, live instants), rejections, and empty
    /// shed/failed buckets (the live twin supports neither).
    pub run: ServeRun,
    /// Wall-clock milliseconds the whole run took (informational —
    /// never asserted against; CI runs on noisy machines).
    pub wall_elapsed_ms: f64,
    /// The live config the run used.
    pub config: LiveConfig,
}

/// Why a live run failed.
#[derive(Debug)]
pub enum LiveError {
    /// A backend rejected a batched-plan compile mid-run.
    Runtime(RuntimeError),
    /// A shard worker died or wedged (details inside), or the closed
    /// loop's completion watchdog tripped.
    Worker {
        /// The shard whose worker failed (`usize::MAX` = front door).
        shard: usize,
        /// Human-readable failure description.
        detail: String,
    },
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Runtime(e) => write!(f, "live serve: {e}"),
            LiveError::Worker { shard, detail } if *shard == usize::MAX => {
                write!(f, "live serve front door: {detail}")
            }
            LiveError::Worker { shard, detail } => {
                write!(f, "live serve shard {shard}: {detail}")
            }
        }
    }
}

impl std::error::Error for LiveError {}

impl From<RuntimeError> for LiveError {
    fn from(e: RuntimeError) -> Self {
        LiveError::Runtime(e)
    }
}

/// The threaded serving twin over a compiled cluster.
///
/// Construction validates the same invariants as
/// [`ServeSim::with_cluster`](super::ServeSim::with_cluster) plus the
/// live-support envelope; [`LiveServer::run`] spawns the shard workers
/// and drives the front door on the calling thread.
#[derive(Debug)]
pub struct LiveServer {
    cluster: Arc<ServeCluster>,
    policy: Arc<dyn BatchPolicy>,
    trace: Vec<Request>,
    engine: EngineConfig,
    live: LiveConfig,
}

impl LiveServer {
    /// Builds a live server over an already-compiled cluster.
    ///
    /// # Panics
    ///
    /// Panics if the trace is unsorted or names an unknown network, if
    /// the live config is invalid (`time_scale` must be positive and
    /// finite, the transport and stamp quantum well-formed, a closed
    /// loop's window non-zero), or if the engine config asks for
    /// features the live twin does not implement: hedging, shedding,
    /// preplaced admission, or fault kinds other than
    /// [`FaultKind::Degrade`] / [`FaultKind::StallCompile`].
    #[must_use]
    pub fn new(
        cluster: Arc<ServeCluster>,
        policy: Arc<dyn BatchPolicy>,
        trace: &[Request],
        engine: EngineConfig,
        live: LiveConfig,
    ) -> Self {
        cluster.check_trace(trace);
        assert!(
            live.time_scale > 0.0 && live.time_scale.is_finite(),
            "time_scale must be positive and finite, got {}",
            live.time_scale
        );
        assert!(live.transport.is_valid(), "invalid transport model");
        assert!(
            live.stamp_quantum_ms >= 0.0 && live.stamp_quantum_ms.is_finite(),
            "stamp quantum must be non-negative and finite"
        );
        if let LiveMode::ClosedLoop { window } = live.mode {
            assert!(window > 0, "closed-loop window must be non-zero");
        }
        assert!(
            engine.admission == super::Admission::Online,
            "the live twin is online admission only"
        );
        assert!(
            engine.hedge.is_none() && engine.shed.is_none(),
            "hedging and shedding are engine-only features"
        );
        assert!(
            engine.preempt.is_none() && engine.scale.is_none(),
            "preemption and autoscaling are engine-only features \
             (reconfiguration is allowed: it is trace-deterministic)"
        );
        for event in engine.faults.events() {
            assert!(
                matches!(
                    event.kind,
                    FaultKind::Degrade { .. } | FaultKind::StallCompile { .. }
                ),
                "live faults are the timing-only subset (degrade/stall); {:?} is engine-only",
                event.kind
            );
        }
        LiveServer {
            cluster,
            policy,
            trace: trace.to_vec(),
            engine,
            live,
        }
    }

    /// The compiled cluster this server runs over.
    #[must_use]
    pub fn cluster(&self) -> &Arc<ServeCluster> {
        &self.cluster
    }

    /// The engine configuration shared with the oracle replay.
    #[must_use]
    pub fn engine_config(&self) -> &EngineConfig {
        &self.engine
    }

    /// Runs the live twin: spawns one worker thread per shard, drives
    /// the front door on the calling thread, and assembles the
    /// engine-shaped result.
    ///
    /// `placement` is consulted once per request, in admission order,
    /// on the front-door thread — the same discipline as the engine's
    /// online admission.
    ///
    /// # Errors
    ///
    /// [`LiveError::Runtime`] when a backend rejects a batched-plan
    /// compile; [`LiveError::Worker`] when a worker thread dies or a
    /// policy wedges a queue.
    pub fn run(&self, placement: &mut dyn Placement) -> Result<LiveReport, LiveError> {
        let shard_count = self.cluster.shard_count();

        let gauges: Vec<ShardGauges> = (0..shard_count).map(|_| ShardGauges::default()).collect();

        let mut to_shard: Vec<Sender<Request>> = Vec::with_capacity(shard_count);
        let mut from_door: Vec<Receiver<Request>> = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (tx, rx) = std::sync::mpsc::channel();
            to_shard.push(tx);
            from_door.push(rx);
        }
        let (done_tx, done_rx) = std::sync::mpsc::channel::<u64>();
        let closed_loop = matches!(self.live.mode, LiveMode::ClosedLoop { .. });
        let cores = ShardCore::fleet(&self.cluster, self.policy.as_ref(), &self.engine);

        let anchor = Instant::now();
        let result = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(shard_count);
            for ((shard, rx), core) in from_door.into_iter().enumerate().zip(cores) {
                let worker = Worker {
                    shard,
                    core,
                    ready: Vec::new(),
                    windows: WindowSchedule::new(&self.engine.faults, shard),
                    scale: self.live.time_scale,
                    transport: self.live.transport,
                    anchor,
                    gauges: &gauges[shard],
                };
                let done = closed_loop.then(|| done_tx.clone());
                handles.push(scope.spawn(move || worker.serve(&rx, done.as_ref())));
            }
            // The workers hold clones; the front door only receives.
            drop(done_tx);

            let door = self.front_door(placement, &to_shard, &done_rx, anchor, &gauges);
            // Closing the admission channels is the workers' stop
            // signal — they drain, flush and return.
            drop(to_shard);

            let mut cores = Vec::with_capacity(shard_count);
            let mut first_error: Option<LiveError> = None;
            for (shard, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(Ok(core)) => cores.push(core),
                    Ok(Err(error)) => {
                        first_error.get_or_insert(error);
                    }
                    Err(_) => {
                        first_error.get_or_insert(LiveError::Worker {
                            shard,
                            detail: "worker thread panicked".into(),
                        });
                    }
                }
            }
            if let Some(error) = first_error {
                return Err(error);
            }
            let (realized_trace, rejected) = door?;
            Ok((realized_trace, rejected, cores))
        });
        let (realized_trace, rejected, cores) = result?;
        let wall_elapsed_ms = anchor.elapsed().as_secs_f64() * 1000.0;

        let num_classes = self
            .trace
            .iter()
            .map(|r| usize::from(r.class))
            .max()
            .map_or(1, |c| c + 1);
        let (reports, reconfig) = close_fleet(cores);
        Ok(LiveReport {
            realized_trace,
            run: ServeRun {
                reports,
                rejected,
                shed: Vec::new(),
                failed: Vec::new(),
                class_stats: vec![super::ClassFaultStats::default(); num_classes],
                preempted: Vec::new(),
                scale: super::ScaleStats::default(),
                reconfig,
            },
            wall_elapsed_ms,
            config: self.live,
        })
    }

    /// Paces admissions, runs placement + admission control, records
    /// realized stamps. Returns `(realized_trace, rejected)`.
    fn front_door(
        &self,
        placement: &mut dyn Placement,
        to_shard: &[Sender<Request>],
        done_rx: &Receiver<u64>,
        anchor: Instant,
        live: &[ShardGauges],
    ) -> Result<(Vec<Request>, Vec<Request>), LiveError> {
        let shard_count = to_shard.len();
        let scale = self.live.time_scale;
        let mut gauges = ViewGauges::new(shard_count);

        let mut realized_trace: Vec<Request> = Vec::with_capacity(self.trace.len());
        let mut rejected: Vec<Request> = Vec::new();
        let mut last_stamp = 0.0_f64;
        let mut outstanding = 0_usize;

        for planned in &self.trace {
            match self.live.mode {
                LiveMode::OpenLoop => {
                    // Sleep until the planned (scaled) arrival instant;
                    // if we are already past it, admit immediately —
                    // the realized stamp records the slip.
                    let target_wall_ms = planned.arrival_ms * scale;
                    let now_wall_ms = anchor.elapsed().as_secs_f64() * 1000.0;
                    if target_wall_ms > now_wall_ms {
                        std::thread::sleep(wall_duration(target_wall_ms - now_wall_ms));
                    }
                }
                LiveMode::ClosedLoop { window } => {
                    while outstanding >= window {
                        // The watchdog bounds a wedged worker or an
                        // undersized window: no completion for 30 wall
                        // seconds means the loop cannot make progress.
                        match done_rx.recv_timeout(Duration::from_secs(30)) {
                            Ok(_) => outstanding -= 1,
                            Err(RecvTimeoutError::Timeout) => {
                                return Err(LiveError::Worker {
                                    shard: usize::MAX,
                                    detail: format!(
                                        "closed loop stalled: {outstanding} outstanding \
                                         requests, no completion in 30s (window too small \
                                         for the batching policy?)"
                                    ),
                                });
                            }
                            Err(RecvTimeoutError::Disconnected) => {
                                return Err(LiveError::Worker {
                                    shard: usize::MAX,
                                    detail: "all workers exited mid-run".into(),
                                });
                            }
                        }
                    }
                }
            }

            // Realized admission stamp: monotone by construction
            // (quantization floors, and flooring preserves order).
            let raw_ms = anchor.elapsed().as_secs_f64() * 1000.0 / scale;
            let mut stamp = if self.live.stamp_quantum_ms > 0.0 {
                (raw_ms / self.live.stamp_quantum_ms).floor() * self.live.stamp_quantum_ms
            } else {
                raw_ms
            };
            stamp = stamp.max(last_stamp);
            last_stamp = stamp;
            let realized = Request {
                id: planned.id,
                network: planned.network,
                arrival_ms: stamp,
                deadline_ms: if planned.deadline_ms.is_finite() {
                    stamp + (planned.deadline_ms - planned.arrival_ms)
                } else {
                    f64::INFINITY
                },
                class: planned.class,
            };
            realized_trace.push(realized);

            // Placement + admission control: the engine's own rule,
            // over a live-gauge snapshot.
            for (shard, shared) in live.iter().enumerate() {
                gauges.queued[shard] = shared.queued.load(Ordering::Relaxed);
                gauges.in_flight[shard] = shared.in_flight.load(Ordering::Relaxed);
                gauges.resident[shard] = shared.resident.load(Ordering::Relaxed);
            }
            // Every shard accepts: the live twin has no autoscaler.
            let target = admit_online(
                &self.cluster,
                &self.engine.cache_budget,
                placement,
                &realized,
                &gauges.view(&self.cluster),
                |_| true,
            );
            match target {
                Some(shard) => {
                    live[shard].queued.fetch_add(1, Ordering::Relaxed);
                    if to_shard[shard].send(realized).is_err() {
                        // The worker is gone; its join result carries
                        // the real failure.
                        return Err(LiveError::Worker {
                            shard,
                            detail: "admission channel closed mid-run".into(),
                        });
                    }
                    outstanding += 1;
                }
                None => rejected.push(realized),
            }
        }
        Ok((realized_trace, rejected))
    }
}

/// One shard's live-view gauges, shared lock-free between its worker
/// and the front door.
#[derive(Default)]
struct ShardGauges {
    queued: AtomicUsize,
    in_flight: AtomicUsize,
    resident: AtomicU64,
}

/// One shard worker: the shard's [`ShardCore`] plus the wall-clock
/// plumbing around it (borrowed into its thread).
struct Worker<'a> {
    shard: usize,
    core: ShardCore<'a>,
    /// Scratch for [`ShardCore::select`] (refilled per dispatch).
    ready: Vec<Ready>,
    /// The shard's degrade/stall window edges, fed to the core in time
    /// order.
    windows: WindowSchedule,
    scale: f64,
    transport: TransportModel,
    anchor: Instant,
    gauges: &'a ShardGauges,
}

impl<'a> Worker<'a> {
    /// Simulated "now" on this worker's clock.
    fn sim_now(&self) -> f64 {
        self.anchor.elapsed().as_secs_f64() * 1000.0 / self.scale
    }

    /// Sleeps until simulated instant `target_ms` (no-op if past).
    fn sleep_until(&self, target_ms: f64) {
        let wall_target_ms = target_ms * self.scale;
        let now_wall_ms = self.anchor.elapsed().as_secs_f64() * 1000.0;
        if wall_target_ms > now_wall_ms {
            std::thread::sleep(wall_duration(wall_target_ms - now_wall_ms));
        }
    }

    /// The worker loop: drain admissions into the core, launch the
    /// core's best ready batch, otherwise block until the next
    /// admission or the core's wake instant. Returns the core for the
    /// run's books once the front door has closed and the queues are
    /// empty.
    fn serve(
        mut self,
        rx: &Receiver<Request>,
        done: Option<&Sender<u64>>,
    ) -> Result<ShardCore<'a>, LiveError> {
        let mut open = true;
        loop {
            // Drain everything already admitted, without blocking.
            loop {
                match rx.try_recv() {
                    Ok(request) => self.core.admit(self.sim_now(), request),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }

            let wake_ms = self.core.select(self.sim_now(), |_| open, &mut self.ready);
            if let Some(best) = self.ready.first().copied() {
                self.execute_batch(best.net, best.take, done)?;
                continue;
            }
            if !open {
                if self.core.queued() == 0 {
                    return Ok(self.core);
                }
                if wake_ms.is_finite() {
                    // A timed batch close (e.g. a Deadline expiry)
                    // still pending after the trace ended.
                    self.sleep_until(wake_ms);
                    continue;
                }
                return Err(LiveError::Worker {
                    shard: self.shard,
                    detail: format!(
                        "wedged with {} queued requests (policy never became ready \
                         after the trace ended)",
                        self.core.queued()
                    ),
                });
            }
            // Open: block until the next admission (or the batch-close
            // instant, whichever is sooner).
            let next = if wake_ms.is_finite() {
                rx.recv_timeout(wall_duration((wake_ms - self.sim_now()) * self.scale))
            } else {
                rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
            };
            match next {
                Ok(request) => self.core.admit(self.sim_now(), request),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => open = false,
            }
        }
    }

    /// Runs one batch: the transport gate, the core's launch (after
    /// feeding it every fault-window edge before the start instant),
    /// the scaled occupancy sleep, and the core's completion record.
    fn execute_batch(
        &mut self,
        net: usize,
        take: usize,
        done: Option<&Sender<u64>>,
    ) -> Result<(), LiveError> {
        // No member may be batched before its request envelope has
        // crossed the modeled link.
        let request_delay = self.transport.request_delay_ms();
        let gate_ms = self
            .core
            .queue(net)
            .iter()
            .take(take)
            .map(|r| r.arrival_ms + request_delay)
            .fold(0.0_f64, f64::max);
        self.gauges.queued.fetch_sub(take, Ordering::Relaxed);
        self.sleep_until(gate_ms);
        let start_ms = self.sim_now();
        self.windows.advance(start_ms, &mut self.core);
        let batch = self.core.launch(start_ms, net, take)?;
        self.gauges
            .resident
            .store(self.core.resident_bytes(), Ordering::Relaxed);

        // Occupy the shard for the modeled duration, scaled to wall
        // time. The recorded costs stay the modeled values; only the
        // instants are live.
        self.gauges.in_flight.store(take, Ordering::Relaxed);
        self.sleep_until(start_ms + batch.compile_ms + batch.service_ms);
        self.gauges.in_flight.store(0, Ordering::Relaxed);
        let finish_ms = self.sim_now();
        let delivered_ms = finish_ms + self.transport.response_delay_ms();
        self.core
            .complete(&batch, finish_ms, delivered_ms, |_| true);
        if let Some(done_tx) = done {
            for request in &batch.requests {
                // The front door may have stopped listening (open
                // loop drains nothing); that is not an error.
                let _ = done_tx.send(request.id);
            }
        }
        self.core.recycle(batch);
        Ok(())
    }
}

/// A non-negative wall duration from (possibly jittery) milliseconds.
fn wall_duration(ms: f64) -> Duration {
    if ms.is_finite() && ms > 0.0 {
        Duration::from_secs_f64(ms / 1000.0)
    } else {
        Duration::ZERO
    }
}
