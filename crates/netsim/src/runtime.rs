//! The persistent core-pinned shard runtime: long-lived worker threads
//! fed through lock-free SPSC rings, under a supervising dispatcher.
//!
//! [`ParallelShardedNat`](crate::harness::ParallelShardedNat) proved
//! the N-shard NAT *correct* under parallel execution, but it spawns
//! its scoped workers **per burst** — thread creation and teardown on
//! every burst swamps the per-packet work, which is why the honest
//! wall-clock number in `BENCH_throughput.json` sat ~20x below the
//! per-shard sum. This module is the deployment-shaped fix, the
//! software analog of DPDK's `rte_eal_remote_launch` + `rte_ring`
//! topology:
//!
//! * **one long-lived worker thread per shard**, spawned once per
//!   session ([`with_shard_runtime`]) and kept hot across every burst;
//! * each worker **pinned to a CPU** with `sched_setaffinity` (via the
//!   safe wrappers in [`crate::backend::os`]; `unsafe` stays confined
//!   to that module's `sys` block). Pinning failure — unprivileged or
//!   cgroup-restricted runners — degrades gracefully to unpinned
//!   persistent workers, and the [`PinReport`] says so;
//! * dispatcher ↔ worker traffic rides two [`libvig::spsc`] rings per
//!   shard (jobs down, results up): single-producer/single-consumer,
//!   cache-line-padded cursors, batched word transfers — no locks
//!   anywhere on the datapath, matching the paper's no-shared-state
//!   discipline (§5: every structure single-owner);
//! * workers **busy-poll with exponential idle backoff** (spin → yield
//!   → sleep, the thread-world analog of
//!   [`crate::eventloop::Poller`]'s virtual backoff), so an idle shard
//!   cedes its core — which matters on the very runners where pinning
//!   is also restricted.
//!
//! ## Determinism (the oracle contract)
//!
//! Parallelism changes *when* work happens, never *what* the result
//! is. Dispatch is the same RSS function the flow table routes by, so
//! shards share no flow state; each worker drains its sub-burst
//! run-to-completion in [`MAX_BURST`] chunks (an empty sub-burst still
//! runs one empty chunk — the expiry tick a polling core performs
//! every iteration); and the dispatcher merges results in shard order,
//! scattering verdicts and rewritten bytes back to arrival positions.
//! The result: for any interleaving of worker execution, N-worker
//! output and state are byte-identical to the sequential
//! [`ShardedFlowManager`] oracle — `tests/runtime_equivalence.rs`
//! proves it differentially at 1/2/4 workers.
//!
//! ## Supervision (graceful degradation)
//!
//! The paper's proof covers the loop body; a deployment also has to
//! survive the loop body's *host* misbehaving. Three failure classes
//! are handled, each with full loss attribution (every frame that
//! does not come back forwarded is counted in exactly one
//! [`SupervisorStats`] bucket):
//!
//! 1. **Worker panic.** Each worker reads its *entire* job off the
//!    ring before touching shard state, and buffers its *entire*
//!    result before pushing — so the rings only ever see whole
//!    responses, never a torn stream. The job itself runs under
//!    `catch_unwind`; on panic the worker discards the suspect shard
//!    state ([`vignat::FlowManager::reset`] — mid-batch, any subset of
//!    table/chain updates may have landed — plus a fresh
//!    [`Mempool`], since staged buffers leak on unwind), re-attempts
//!    its pin, and answers with a two-word `DOWN` report instead of a
//!    result body. The dispatcher maps the whole job to
//!    [`Verdict::Drop`], records a [`WorkerDown`] event, and the next
//!    burst finds the shard alive and empty. Surviving shards are
//!    untouched: their merge is byte-identical to a run where the dead
//!    shard's frames simply never arrived.
//! 2. **Worker death.** If a shard stops making ring progress for
//!    longer than the session's stall budget
//!    ([`ShardRuntimeSession::set_stall_budget`]), the dispatcher
//!    retires it: the in-flight job is dropped with accounting, the
//!    dead result ring is drained (words counted, not abandoned), and
//!    the shard is marked dead. This is also the **bounded
//!    backpressure** guarantee — a full job ring can delay a burst by
//!    at most the stall budget, never stall it forever.
//! 3. **Retired shards.** Frames the RSS function routes to a dead
//!    shard are dropped at dispatch (`backpressure_drops`), before any
//!    ring traffic — the session keeps serving every surviving shard.
//!
//! Mempool exhaustion inside a worker is *not* a failure: admission is
//! checked per frame, denied frames come back as [`Verdict::Drop`]
//! with their bytes unmodified, and the count rides the result trailer
//! into `SupervisorStats::pool_denied`.
//!
//! ## Deadlock freedom
//!
//! Rings are bounded, so a naive "push whole job, then read whole
//! result" dispatcher could deadlock against a worker blocked on a
//! full result ring. The dispatcher therefore never blocks: it pumps
//! round-robin — push as many job words as fit, drain whatever result
//! words arrived — until every stream completes or exceeds its stall
//! budget. Workers *may* block (with backoff) on both rings, because
//! the dispatcher is always draining the other end.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::dpdk::{BufIdx, Mempool, MBUF_SIZE};
use crate::frame_env::{BurstEnv, BurstScratch, RssClassifier};
use crate::middlebox::Verdict;
use libvig::spsc;
use libvig::time::Time;
use vig_packet::Direction;
use vignat::{nat_process_batch, IterationOutcome, ShardedFlowManager, MAX_BURST};

/// Job-stream sentinel header: "session over, worker exits".
const SHUTDOWN: u64 = u64::MAX;

/// Job-stream sentinel header: arm the worker to panic partway through
/// its next job — the chaos seam behind the supervised-restart tests.
const KILL: u64 = u64::MAX - 1;

/// Job-stream sentinel header: the worker thread exits immediately and
/// silently — a simulated hard death (SIGKILL analog) that exercises
/// the dispatcher's stall-budget retirement path.
const HALT: u64 = u64::MAX - 2;

/// First word of every per-job response: a complete result body
/// follows (`count × (verdict, len, payload…), expired, pool_denied`).
const STATUS_OK: u64 = 0;

/// First word of a response from a worker that panicked on the job:
/// one more word follows (whether the re-pin after restart succeeded).
const STATUS_DOWN: u64 = 1;

/// Default per-ring capacity in words (64 Ki words = 512 KiB): holds a
/// full 4096-frame burst of minimum-size frames on one shard, so the
/// steady-state pump rarely has to split a job across refills.
pub const DEFAULT_RING_WORDS: usize = 1 << 16;

/// Default [`ShardRuntimeSession::set_stall_budget`]: how long a shard
/// may make zero ring progress mid-burst before the dispatcher retires
/// it. Generous — a healthy worker chewing a full 4096-frame job
/// finishes orders of magnitude faster — because a false positive
/// retires a live shard.
pub const DEFAULT_STALL_BUDGET: Duration = Duration::from_secs(1);

/// What happened when the session asked for core pinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinReport {
    /// Whether pinning was requested for this session.
    pub requested: bool,
    /// Worker threads the session ran.
    pub workers: usize,
    /// Workers whose `sched_setaffinity` succeeded (0 when pinning was
    /// not requested, or on non-Linux hosts, or when the runner forbids
    /// it — the graceful-degradation path). Kept current across
    /// supervised restarts: a restarted worker re-attempts its pin and
    /// reports the outcome; a retired shard stops counting.
    pub pinned: usize,
    /// CPUs the process may run on (`sched_getaffinity`), the honest
    /// core budget under taskset/cgroup limits. Worker `s` pins to
    /// `allowed[s % host_cores]`.
    pub host_cores: usize,
}

/// Supervisor counters: every frame the runtime failed to process is
/// attributed to exactly one bucket here (the chaos suites assert the
/// conservation law). All counters accumulate over a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Worker panics caught and recovered (shard state reset, worker
    /// kept serving). One [`WorkerDown`] event each.
    pub worker_downs: u64,
    /// Shards retired after exceeding the dispatcher's stall budget
    /// with zero ring progress (worker thread presumed dead).
    pub hard_deaths: u64,
    /// Frames lost to a panicking or dying worker: the whole in-flight
    /// job maps to [`Verdict::Drop`].
    pub frames_lost: u64,
    /// Frames dropped at dispatch because their shard was already
    /// retired — the bounded-backpressure path (no ring traffic, no
    /// stall).
    pub backpressure_drops: u64,
    /// Frames denied a buffer by a worker's checked mempool admission:
    /// returned as [`Verdict::Drop`] with bytes unmodified.
    pub pool_denied: u64,
    /// Result-ring words drained and discarded from dead shards —
    /// counted so in-flight data is accounted, never silently
    /// abandoned.
    pub drained_result_words: u64,
}

/// One supervised-failure event, in occurrence order
/// ([`ShardRuntimeSession::down_events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerDown {
    /// Which shard went down.
    pub shard: usize,
    /// Frames of the in-flight job lost to the failure (all returned
    /// as [`Verdict::Drop`]).
    pub frames_lost: usize,
    /// Whether the restarted worker's re-pin succeeded (always `false`
    /// for hard deaths — there is no worker left to pin).
    pub repinned: bool,
    /// `true`: panic caught, worker restarted on a fresh shard and
    /// still serving. `false`: hard death, shard retired for the rest
    /// of the session.
    pub restarted: bool,
}

/// Post-session summary returned by [`with_shard_runtime`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeReport {
    /// Pinning outcome (see [`PinReport`]).
    pub pin: PinReport,
    /// Flows expired by workers over the whole session.
    pub expired: u64,
    /// Supervisor counters (see [`SupervisorStats`]): all zero on a
    /// fault-free session.
    pub chaos: SupervisorStats,
}

// --- affinity shims (backend::os is Linux-only) ----------------------------

#[cfg(target_os = "linux")]
fn pin_to(cpu: usize) -> bool {
    crate::backend::os::pin_current_thread(cpu).is_ok()
}

#[cfg(not(target_os = "linux"))]
fn pin_to(_cpu: usize) -> bool {
    false
}

#[cfg(target_os = "linux")]
fn host_allowed_cpus() -> Vec<usize> {
    crate::backend::os::allowed_cpus().unwrap_or_else(|_| fallback_cpus())
}

#[cfg(not(target_os = "linux"))]
fn host_allowed_cpus() -> Vec<usize> {
    fallback_cpus()
}

fn fallback_cpus() -> Vec<usize> {
    let n = std::thread::available_parallelism().map_or(1, |p| p.get());
    (0..n).collect()
}

// --- word codec ------------------------------------------------------------

/// Words a `len`-byte payload occupies (8 bytes per word, last padded).
fn payload_words(len: usize) -> usize {
    len.div_ceil(8)
}

/// Append `[len, payload…]` for one frame to a word stream.
fn encode_frame(words: &mut Vec<u64>, frame: &[u8]) {
    words.push(frame.len() as u64);
    for chunk in frame.chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        words.push(u64::from_le_bytes(b));
    }
}

/// Decode `payload_words(len)` words into `out[..len]`.
fn decode_payload(words: &[u64], out: &mut [u8]) {
    for (i, w) in words.iter().enumerate() {
        let b = w.to_le_bytes();
        let lo = i * 8;
        let hi = (lo + 8).min(out.len());
        out[lo..hi].copy_from_slice(&b[..hi - lo]);
    }
}

// --- worker-side blocking ring ops with idle backoff -----------------------

/// Spin → yield → sleep ladder for a worker waiting on its rings: the
/// real-time analog of the event loop's virtual idle backoff. The spin
/// phase keeps the hot path latency-free; the sleep phase (doubling
/// 1 µs → 128 µs) matters on hosts with fewer cores than workers,
/// where a spinning worker would starve the dispatcher it is waiting
/// on.
struct Backoff {
    step: u32,
}

impl Backoff {
    const SPINS: u32 = 64;
    const YIELDS: u32 = 16;
    const SLEEP_MIN_NS: u64 = 1_000;
    const SLEEP_MAX_NS: u64 = 128_000;

    fn new() -> Backoff {
        Backoff { step: 0 }
    }

    fn reset(&mut self) {
        self.step = 0;
    }

    fn wait(&mut self) {
        if self.step < Self::SPINS {
            std::hint::spin_loop();
        } else if self.step < Self::SPINS + Self::YIELDS {
            std::thread::yield_now();
        } else {
            let exp = (self.step - Self::SPINS - Self::YIELDS).min(16);
            let ns = (Self::SLEEP_MIN_NS << exp).min(Self::SLEEP_MAX_NS);
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        }
        self.step = self.step.saturating_add(1);
    }
}

/// Blocking single-word pop (worker side only — the dispatcher never
/// blocks; see the module docs' deadlock argument).
fn pop_blocking(ring: &mut spsc::Consumer, backoff: &mut Backoff) -> u64 {
    loop {
        if let Some(w) = ring.try_pop() {
            backoff.reset();
            return w;
        }
        backoff.wait();
    }
}

/// Blocking slice push (worker side only).
fn push_blocking(ring: &mut spsc::Producer, words: &[u64], backoff: &mut Backoff) {
    let mut sent = 0;
    while sent < words.len() {
        let n = ring.push_slice(&words[sent..]);
        if n == 0 {
            backoff.wait();
        } else {
            backoff.reset();
            sent += n;
        }
    }
}

// --- the worker loop -------------------------------------------------------

/// Run one fully-buffered job against the shard's state and build the
/// complete `OK` response: `[STATUS_OK, count × (verdict, len,
/// payload…), expired, pool_denied]`.
///
/// Frames live in `flat` back-to-back, lengths in `lens`. Processing
/// is run-to-completion in [`MAX_BURST`] chunks exactly like the
/// scoped per-burst driver, so state trajectories are identical; an
/// empty job runs one empty chunk (the polling core's expiry tick).
/// Mempool admission is checked, not assumed: a denied frame is
/// dropped with its bytes echoed unmodified and counted in the
/// `pool_denied` trailer — undersized pools degrade, they don't panic.
///
/// `kill` is the test seam: panic after the first chunk (after the
/// empty tick for an empty job), so shard state is *partially* mutated
/// when the supervisor's reset runs — the hard case.
#[allow(clippy::too_many_arguments)]
fn run_job(
    fm: &mut vignat::FlowManager,
    pool: &mut Mempool,
    scratch: &mut BurstScratch,
    cfg: &vig_spec::NatConfig,
    dir: Direction,
    now: Time,
    flat: &[u8],
    lens: &[usize],
    kill: bool,
) -> Vec<u64> {
    let cap: usize = 3 + lens.iter().map(|&l| 2 + payload_words(l)).sum::<usize>();
    let mut out = Vec::with_capacity(cap);
    out.push(STATUS_OK);
    let mut expired = 0usize;
    let mut pool_denied = 0u64;
    if lens.is_empty() {
        // Idle shard: one empty burst, so expiry ticks exactly as in
        // the sequential oracle (which expires every shard per burst)
        // and in the scoped per-burst driver.
        let mut env = BurstEnv::new(fm, pool, &[], dir, now, scratch);
        let outcomes = nat_process_batch(&mut env, cfg);
        debug_assert!(outcomes.is_empty());
        expired += env.expired();
        env.finish();
        if kill {
            panic!("injected worker kill (test seam)");
        }
    }
    let mut bufs: Vec<BufIdx> = Vec::with_capacity(MAX_BURST.max(1));
    let mut slots: Vec<Option<BufIdx>> = Vec::with_capacity(MAX_BURST.max(1));
    let mut idx = 0usize; // next frame
    let mut at = 0usize; // its offset into `flat`
    let mut first_chunk = true;
    while idx < lens.len() {
        let take = (lens.len() - idx).min(MAX_BURST.max(1));
        bufs.clear();
        slots.clear();
        let mut o = at;
        for &len in &lens[idx..idx + take] {
            match pool.get() {
                Some(b) => {
                    pool.write_frame(b, &flat[o..o + len]);
                    bufs.push(b);
                    slots.push(Some(b));
                }
                None => {
                    pool_denied += 1;
                    slots.push(None);
                }
            }
            o += len;
        }
        let mut env = BurstEnv::new(fm, pool, &bufs, dir, now, scratch);
        let outcomes = nat_process_batch(&mut env, cfg);
        debug_assert_eq!(outcomes.len(), bufs.len());
        expired += env.expired();
        env.finish();
        let mut oi = 0usize;
        let mut o = at;
        for (k, &len) in lens[idx..idx + take].iter().enumerate() {
            match slots[k] {
                Some(b) => {
                    let verdict = match outcomes[oi] {
                        IterationOutcome::Forwarded(Direction::Internal) => 1,
                        IterationOutcome::Forwarded(Direction::External) => 2,
                        IterationOutcome::Dropped(_) => 0,
                        IterationOutcome::NoPacket => unreachable!("staged buffer"),
                    };
                    oi += 1;
                    out.push(verdict);
                    encode_frame(&mut out, pool.frame(b));
                    pool.put(b);
                }
                None => {
                    out.push(0); // Verdict::Drop, bytes unmodified
                    encode_frame(&mut out, &flat[o..o + len]);
                }
            }
            o += len;
        }
        at = o;
        idx += take;
        if kill && first_chunk {
            panic!("injected worker kill (test seam)");
        }
        first_chunk = false;
    }
    out.push(expired as u64);
    out.push(pool_denied);
    out
}

/// One shard's long-lived worker: pin (best effort), report pin status
/// as the first result word, then serve jobs until the shutdown
/// sentinel.
///
/// Job stream per burst: `[count, dir, now_ns, count × (len,
/// payload…)]`. Each response starts with a status word:
/// [`STATUS_OK`] followed by the full result body (see [`run_job`]),
/// or [`STATUS_DOWN`] followed by the re-pin flag when the job
/// panicked. The worker reads the *whole* job before processing and
/// buffers the *whole* response before pushing, so a panic can never
/// leave a torn stream on either ring — the supervisor's framing
/// invariant.
fn worker_loop(
    fm: &mut vignat::FlowManager,
    pool: &mut Mempool,
    scratch: &mut BurstScratch,
    cfg: vig_spec::NatConfig,
    jobs: &mut spsc::Consumer,
    results: &mut spsc::Producer,
    pin_cpu: Option<usize>,
) {
    let pinned = pin_cpu.is_some_and(pin_to);
    let mut backoff = Backoff::new();
    push_blocking(results, &[u64::from(pinned)], &mut backoff);
    let pool_capacity = pool.capacity();
    let mut frame_buf = vec![0u8; MBUF_SIZE];
    let mut words: Vec<u64> = Vec::with_capacity(MBUF_SIZE / 8 + 2);
    let mut flat: Vec<u8> = Vec::new();
    let mut lens: Vec<usize> = Vec::new();
    let mut armed = false;
    loop {
        let header = pop_blocking(jobs, &mut backoff);
        match header {
            SHUTDOWN => return,
            HALT => return, // simulated hard death: exit without a word
            KILL => {
                armed = true;
                continue;
            }
            _ => {}
        }
        let count = header as usize;
        let dir = if pop_blocking(jobs, &mut backoff) == 0 {
            Direction::Internal
        } else {
            Direction::External
        };
        let now = Time::ZERO.plus(pop_blocking(jobs, &mut backoff));
        flat.clear();
        lens.clear();
        for _ in 0..count {
            let len = pop_blocking(jobs, &mut backoff) as usize;
            debug_assert!(len <= MBUF_SIZE);
            words.clear();
            for _ in 0..payload_words(len) {
                words.push(pop_blocking(jobs, &mut backoff));
            }
            decode_payload(&words, &mut frame_buf[..len]);
            flat.extend_from_slice(&frame_buf[..len]);
            lens.push(len);
        }
        // The whole job is now local: shard state is touched only from
        // here on, and only whole responses hit the result ring.
        let kill = std::mem::take(&mut armed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_job(fm, pool, scratch, &cfg, dir, now, &flat, &lens, kill)
        }));
        match outcome {
            Ok(response) => push_blocking(results, &response, &mut backoff),
            Err(_) => {
                // Supervised restart: the shard's state is suspect (any
                // subset of the batch's updates may have landed) and
                // staged mbufs leaked on unwind — rebuild both, re-pin,
                // and report DOWN instead of a result body.
                fm.reset();
                *pool = Mempool::new(pool_capacity);
                *scratch = BurstScratch::default();
                let repinned = pin_cpu.is_some_and(pin_to);
                push_blocking(results, &[STATUS_DOWN, u64::from(repinned)], &mut backoff);
            }
        }
    }
}

// --- the dispatcher session ------------------------------------------------

/// The dispatcher's handle to a live worker fleet, valid inside one
/// [`with_shard_runtime`] call. Owns the job-ring producers and
/// result-ring consumers; the workers own the opposite ends plus their
/// shard's flow state, mempool, and scratch (disjoint `&mut` borrows —
/// the compiler enforces the no-shared-state discipline).
///
/// The session doubles as the supervisor: it detects worker panics
/// (`DOWN` responses), retires unresponsive shards after the stall
/// budget, and attributes every lost frame in [`SupervisorStats`].
pub struct ShardRuntimeSession {
    jobs: Vec<spsc::Producer>,
    results: Vec<spsc::Consumer>,
    classifier: RssClassifier,
    expired: u64,
    pin: PinReport,
    pinned_by_shard: Vec<bool>,
    dead: Vec<bool>,
    chaos: SupervisorStats,
    downs: Vec<WorkerDown>,
    stall_budget: Duration,
}

/// Result-stream words still owed by a shard given what has arrived:
/// unknown until the status word lands, then the full `OK` body or the
/// two-word `DOWN` report.
fn expected_words(stream: &[u64], ok_need: usize) -> usize {
    match stream.first() {
        None => 1,
        Some(&STATUS_OK) => ok_need,
        Some(_) => 2,
    }
}

impl ShardRuntimeSession {
    /// Number of worker threads (== shards).
    pub fn worker_count(&self) -> usize {
        self.jobs.len()
    }

    /// Pinning outcome for this session's workers (kept current across
    /// restarts and retirements).
    pub fn pin_report(&self) -> PinReport {
        self.pin
    }

    /// Flows expired by workers so far this session.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Supervisor counters so far this session.
    pub fn supervisor(&self) -> SupervisorStats {
        self.chaos
    }

    /// Supervised-failure events so far this session, in order.
    pub fn down_events(&self) -> &[WorkerDown] {
        &self.downs
    }

    /// Whether shard `s` is still serving (not retired by the
    /// supervisor). A worker that panicked and restarted is alive.
    pub fn shard_alive(&self, s: usize) -> bool {
        !self.dead[s]
    }

    /// Replace the stall budget ([`DEFAULT_STALL_BUDGET`]): the longest
    /// a shard may sit mid-burst with zero ring progress before the
    /// dispatcher declares it dead and drops its in-flight job. Chaos
    /// tests shrink it to keep hard-death scenarios fast.
    pub fn set_stall_budget(&mut self, budget: Duration) {
        self.stall_budget = budget;
    }

    /// Arm shard `s`'s worker to panic partway through its next job —
    /// the chaos seam the supervised-restart tests drive. Returns
    /// `false` if the shard is already dead or the sentinel could not
    /// be enqueued within the stall budget.
    pub fn kill_worker(&mut self, s: usize) -> bool {
        self.send_sentinel(s, KILL)
    }

    /// Make shard `s`'s worker thread exit silently — a simulated hard
    /// death (SIGKILL analog). The dispatcher only notices at the next
    /// burst, when the shard exhausts its stall budget and is retired.
    /// Returns `false` if the shard is already dead or the sentinel
    /// could not be enqueued.
    pub fn halt_worker(&mut self, s: usize) -> bool {
        self.send_sentinel(s, HALT)
    }

    fn send_sentinel(&mut self, s: usize, sentinel: u64) -> bool {
        if self.dead[s] {
            return false;
        }
        let deadline = Instant::now() + self.stall_budget;
        loop {
            if self.jobs[s].try_push(sentinel) {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
    }

    /// Retire shard `s`: mark dead, account the lost in-flight frames,
    /// and drain whatever the dead worker left on its result ring so
    /// the words are counted rather than silently abandoned.
    fn retire_shard(&mut self, s: usize, frames_lost: usize) {
        self.dead[s] = true;
        self.chaos.hard_deaths += 1;
        self.chaos.frames_lost += frames_lost as u64;
        let mut scrap = Vec::new();
        loop {
            scrap.clear();
            let got = self.results[s].pop_extend(&mut scrap, 1024);
            self.chaos.drained_result_words += got as u64;
            if got == 0 {
                break;
            }
        }
        self.pinned_by_shard[s] = false;
        self.pin.pinned = self.pinned_by_shard.iter().filter(|&&b| b).count();
        self.downs.push(WorkerDown {
            shard: s,
            frames_lost,
            repinned: false,
            restarted: false,
        });
    }

    /// Process one burst arriving on `dir` at instant `now` across the
    /// persistent workers. Frames are rewritten in place; returns one
    /// verdict per frame in arrival order. Semantically identical to
    /// [`crate::harness::ParallelShardedNat::process_burst_parallel`] —
    /// same dispatch, same chunking, same merge order — minus the
    /// per-burst thread spawn.
    ///
    /// Under faults the burst still returns: frames on a panicking or
    /// dying shard come back as [`Verdict::Drop`] with the loss
    /// attributed in [`SupervisorStats`]; surviving shards' verdicts
    /// and bytes are unaffected.
    pub fn process_burst(
        &mut self,
        dir: Direction,
        frames: &mut [Vec<u8>],
        now: Time,
    ) -> Vec<Verdict> {
        let n = self.worker_count();
        // Dispatch: route every frame to its shard (RSS function).
        // Frames bound for a retired shard drop here, with accounting —
        // bounded backpressure, not an unbounded stall.
        let mut routed: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, f) in frames.iter().enumerate() {
            let s = self.classifier.queue_of(dir, f);
            if self.dead[s] {
                self.chaos.backpressure_drops += 1;
                continue;
            }
            routed[s].push(i);
        }
        // Encode each shard's job stream and compute the exact OK
        // result length (the NAT rewrites in place — and pool-denied
        // frames echo — so output length == input length:
        // `status + count × (verdict + len + payload) + 2 trailers`).
        let dir_word = match dir {
            Direction::Internal => 0u64,
            Direction::External => 1u64,
        };
        let mut job_words: Vec<Vec<u64>> = Vec::with_capacity(n);
        let mut ok_need: Vec<usize> = Vec::with_capacity(n);
        for (s, idxs) in routed.iter().enumerate() {
            if self.dead[s] {
                job_words.push(Vec::new());
                ok_need.push(0);
                continue;
            }
            let mut w = Vec::with_capacity(3 + idxs.len() * (1 + MBUF_SIZE / 8));
            w.push(idxs.len() as u64);
            w.push(dir_word);
            w.push(now.nanos());
            let mut result_len = 3; // status word + expired + pool_denied
            for &i in idxs {
                encode_frame(&mut w, &frames[i]);
                result_len += 2 + payload_words(frames[i].len());
            }
            job_words.push(w);
            ok_need.push(result_len);
        }
        // Non-blocking pump: interleave job pushes and result drains so
        // bounded rings can never deadlock (see module docs). A shard
        // with zero progress past the stall budget is retired.
        let mut sent = vec![0usize; n];
        let mut recv: Vec<Vec<u64>> = ok_need.iter().map(|&m| Vec::with_capacity(m)).collect();
        let mut complete: Vec<bool> = (0..n).map(|s| self.dead[s]).collect();
        let mut last_progress: Vec<Instant> = vec![Instant::now(); n];
        loop {
            let mut done = true;
            let mut progress = false;
            for s in 0..n {
                if complete[s] {
                    continue;
                }
                let mut p = false;
                if sent[s] < job_words[s].len() {
                    let pushed = self.jobs[s].push_slice(&job_words[s][sent[s]..]);
                    sent[s] += pushed;
                    p |= pushed > 0;
                }
                let expect = expected_words(&recv[s], ok_need[s]);
                if recv[s].len() < expect {
                    let want = expect - recv[s].len();
                    let popped = self.results[s].pop_extend(&mut recv[s], want);
                    p |= popped > 0;
                }
                let expect = expected_words(&recv[s], ok_need[s]);
                complete[s] = sent[s] == job_words[s].len() && recv[s].len() == expect;
                if p {
                    last_progress[s] = Instant::now();
                }
                progress |= p;
                done &= complete[s];
            }
            if done {
                break;
            }
            if !progress {
                let now_t = Instant::now();
                for s in 0..n {
                    if !complete[s] && now_t.duration_since(last_progress[s]) > self.stall_budget {
                        self.chaos.drained_result_words += recv[s].len() as u64;
                        recv[s].clear();
                        self.retire_shard(s, routed[s].len());
                        complete[s] = true;
                    }
                }
                std::thread::yield_now();
            }
        }
        // Merge in deterministic shard order: scatter verdicts and
        // rewritten bytes back to arrival positions, accumulate expiry.
        // A DOWN response maps its whole job to Drop — the honest loss
        // report; surviving shards merge exactly as on a clean run.
        let mut out = vec![Verdict::Drop; frames.len()];
        for (s, idxs) in routed.iter().enumerate() {
            if self.dead[s] {
                continue;
            }
            let stream = &recv[s];
            debug_assert!(!stream.is_empty());
            if stream[0] == STATUS_DOWN {
                let repinned = stream[1] != 0;
                self.chaos.worker_downs += 1;
                self.chaos.frames_lost += idxs.len() as u64;
                self.pinned_by_shard[s] = repinned;
                self.pin.pinned = self.pinned_by_shard.iter().filter(|&&b| b).count();
                self.downs.push(WorkerDown {
                    shard: s,
                    frames_lost: idxs.len(),
                    repinned,
                    restarted: true,
                });
                continue;
            }
            let mut at = 1usize;
            for &i in idxs {
                let verdict = stream[at];
                let len = stream[at + 1] as usize;
                debug_assert_eq!(len, frames[i].len(), "NAT rewrites in place");
                let pw = payload_words(len);
                decode_payload(&stream[at + 2..at + 2 + pw], &mut frames[i]);
                at += 2 + pw;
                out[i] = match verdict {
                    0 => Verdict::Drop,
                    1 => Verdict::Forward(Direction::Internal),
                    2 => Verdict::Forward(Direction::External),
                    v => unreachable!("bad verdict word {v}"),
                };
            }
            self.expired += stream[at];
            self.chaos.pool_denied += stream[at + 1];
            debug_assert_eq!(at + 2, ok_need[s]);
        }
        out
    }
}

/// Run `f` with a live shard runtime: one persistent worker thread per
/// shard of `table`, each owning its shard's [`Mempool`] and
/// [`BurstScratch`], connected to the calling (dispatcher) thread by
/// SPSC rings of `ring_words` words (use [`DEFAULT_RING_WORDS`]).
///
/// With `pin` set, worker `s` pins itself to the `s % host_cores`-th
/// *allowed* CPU; failures degrade to unpinned workers and are counted
/// in the returned [`RuntimeReport`] — never an error, matching how a
/// restricted CI runner should behave.
///
/// The session (and thus every worker) lives exactly as long as `f`:
/// on return, shutdown sentinels are sent and the scope joins all
/// workers, so `table` is borrowable again immediately after. Shards
/// the supervisor retired get no sentinel — their threads already
/// exited, which is exactly why they were retired.
pub fn with_shard_runtime<R>(
    table: &mut ShardedFlowManager,
    pools: &mut [Mempool],
    scratches: &mut [BurstScratch],
    ring_words: usize,
    pin: bool,
    f: impl FnOnce(&mut ShardRuntimeSession) -> R,
) -> (R, RuntimeReport) {
    let n = table.shard_count();
    assert_eq!(pools.len(), n, "one mempool per shard");
    assert_eq!(scratches.len(), n, "one scratch per shard");
    let classifier = RssClassifier::for_table(table);
    // Every worker runs the loop body with the *global* config: shard
    // FlowManagers hand out pool-global port offsets (via their slot
    // base), so the loop's `start_port + offset` arithmetic must use
    // the global start port on every core.
    let cfg = table.global_cfg();
    let allowed = host_allowed_cpus();
    let host_cores = allowed.len().max(1);
    let mut job_tx = Vec::with_capacity(n);
    let mut job_rx = Vec::with_capacity(n);
    let mut res_tx = Vec::with_capacity(n);
    let mut res_rx = Vec::with_capacity(n);
    for _ in 0..n {
        let (p, c) = spsc::channel(ring_words);
        job_tx.push(p);
        job_rx.push(c);
        let (p, c) = spsc::channel(ring_words);
        res_tx.push(p);
        res_rx.push(c);
    }
    std::thread::scope(|sc| {
        let workers = table
            .shards_mut()
            .iter_mut()
            .zip(pools.iter_mut())
            .zip(scratches.iter_mut())
            .zip(job_rx.into_iter().zip(res_tx))
            .enumerate();
        for (s, (((fm, pool), scratch), (mut jobs, mut results))) in workers {
            let pin_cpu = pin.then(|| allowed[s % host_cores]);
            sc.spawn(move || worker_loop(fm, pool, scratch, cfg, &mut jobs, &mut results, pin_cpu));
        }
        let mut session = ShardRuntimeSession {
            jobs: job_tx,
            results: res_rx,
            classifier,
            expired: 0,
            pin: PinReport {
                requested: pin,
                workers: n,
                pinned: 0,
                host_cores,
            },
            pinned_by_shard: Vec::with_capacity(n),
            dead: vec![false; n],
            chaos: SupervisorStats::default(),
            downs: Vec::new(),
            stall_budget: DEFAULT_STALL_BUDGET,
        };
        // First result word from each worker is its pin status; collect
        // before handing the session to `f` so reports are complete even
        // if `f` never processes a burst. Workers push it immediately,
        // so this wait is bounded by thread startup.
        for c in session.results.iter_mut() {
            let mut backoff = Backoff::new();
            let pinned = pop_blocking(c, &mut backoff) != 0;
            session.pinned_by_shard.push(pinned);
        }
        session.pin.pinned = session.pinned_by_shard.iter().filter(|&&b| b).count();
        let r = f(&mut session);
        // Shutdown: sentinel per live worker, then the scope joins
        // them. Retired shards' threads already exited.
        for (s, p) in session.jobs.iter_mut().enumerate() {
            if session.dead[s] {
                continue;
            }
            let mut backoff = Backoff::new();
            push_blocking(p, &[SHUTDOWN], &mut backoff);
        }
        let report = RuntimeReport {
            pin: session.pin,
            expired: session.expired,
            chaos: session.chaos,
        };
        (r, report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vig_packet::builder::PacketBuilder;
    use vig_packet::Ip4;

    #[test]
    fn codec_roundtrips_odd_lengths() {
        for len in [0usize, 1, 7, 8, 9, 15, 64, 1499] {
            let frame: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let mut words = Vec::new();
            encode_frame(&mut words, &frame);
            assert_eq!(words[0] as usize, len);
            assert_eq!(words.len(), 1 + payload_words(len));
            let mut out = vec![0u8; len];
            decode_payload(&words[1..], &mut out);
            assert_eq!(out, frame);
        }
    }

    fn test_cfg() -> vig_spec::NatConfig {
        vig_spec::NatConfig {
            capacity: 64,
            expiry_ns: Time::from_secs(2).nanos(),
            external_ip: Ip4::new(203, 0, 113, 1),
            start_port: 4096,
            ..vig_spec::NatConfig::paper_default()
        }
    }

    fn flow_frame(host: u8, sport: u16) -> Vec<u8> {
        PacketBuilder::udp(Ip4::new(10, 0, 0, host), Ip4::new(1, 1, 1, 1), sport, 53).build()
    }

    #[test]
    fn pin_report_degrades_gracefully() {
        let cfg = test_cfg();
        let mut table = ShardedFlowManager::new(&cfg, 2);
        let mut pools: Vec<Mempool> = (0..2).map(|_| Mempool::new(8)).collect();
        let mut scratches: Vec<BurstScratch> = (0..2).map(|_| BurstScratch::default()).collect();
        let ((), report) = with_shard_runtime(
            &mut table,
            &mut pools,
            &mut scratches,
            DEFAULT_RING_WORDS,
            true,
            |s| {
                assert_eq!(s.worker_count(), 2);
            },
        );
        assert!(report.pin.requested);
        assert_eq!(report.pin.workers, 2);
        // Pinning either worked or degraded — both are valid outcomes;
        // the report just has to be internally consistent.
        assert!(report.pin.pinned <= 2);
        assert!(report.pin.host_cores >= 1);
        assert_eq!(report.chaos, SupervisorStats::default());
    }

    #[test]
    fn undersized_pool_denies_frames_instead_of_panicking() {
        let cfg = test_cfg();
        let mut table = ShardedFlowManager::new(&cfg, 1);
        // Two buffers for an eight-frame burst: six frames must be
        // denied admission, zero may panic the worker.
        let mut pools = vec![Mempool::new(2)];
        let mut scratches = vec![BurstScratch::default()];
        let (v, report) = with_shard_runtime(
            &mut table,
            &mut pools,
            &mut scratches,
            DEFAULT_RING_WORDS,
            false,
            |s| {
                let mut frames: Vec<Vec<u8>> =
                    (0..8).map(|i| flow_frame(2, 1000 + i as u16)).collect();
                let originals = frames.clone();
                let verdicts = s.process_burst(Direction::Internal, &mut frames, Time::ZERO);
                assert_eq!(s.supervisor().pool_denied, 6);
                assert_eq!(s.supervisor().worker_downs, 0);
                // Denied frames drop with bytes unmodified; admitted
                // ones forward rewritten.
                for (i, v) in verdicts.iter().enumerate() {
                    if i < 2 {
                        assert_eq!(*v, Verdict::Forward(Direction::External));
                        assert_ne!(frames[i], originals[i]);
                    } else {
                        assert_eq!(*v, Verdict::Drop);
                        assert_eq!(frames[i], originals[i]);
                    }
                }
                // The session keeps serving afterwards.
                let mut again = vec![flow_frame(2, 1000)];
                let v2 = s.process_burst(Direction::Internal, &mut again, Time::ZERO.plus(1));
                assert_eq!(v2, vec![Verdict::Forward(Direction::External)]);
                verdicts
            },
        );
        assert_eq!(v.len(), 8);
        assert_eq!(report.chaos.pool_denied, 6);
        assert_eq!(report.chaos.frames_lost, 0);
    }

    #[test]
    fn killed_worker_reports_down_and_restarts_on_fresh_state() {
        let cfg = test_cfg();
        let mut table = ShardedFlowManager::new(&cfg, 1);
        let mut pools = vec![Mempool::new(64)];
        let mut scratches = vec![BurstScratch::default()];
        let ((), report) = with_shard_runtime(
            &mut table,
            &mut pools,
            &mut scratches,
            DEFAULT_RING_WORDS,
            false,
            |s| {
                // Establish a flow, then kill the worker mid-job.
                let mut burst1 = vec![flow_frame(2, 1025)];
                let v1 = s.process_burst(Direction::Internal, &mut burst1, Time::ZERO);
                assert_eq!(v1, vec![Verdict::Forward(Direction::External)]);
                assert!(s.kill_worker(0));
                let mut burst2 = vec![flow_frame(3, 2000)];
                let original = burst2[0].clone();
                // Note: the injected panic prints the usual thread
                // panic message to stderr — expected noise here.
                let v2 = s.process_burst(Direction::Internal, &mut burst2, Time::ZERO.plus(1));
                assert_eq!(v2, vec![Verdict::Drop]);
                assert_eq!(burst2[0], original, "lost frames come back unmodified");
                assert_eq!(s.supervisor().worker_downs, 1);
                assert_eq!(s.supervisor().frames_lost, 1);
                assert_eq!(s.down_events().len(), 1);
                let ev = s.down_events()[0];
                assert_eq!(ev.shard, 0);
                assert_eq!(ev.frames_lost, 1);
                assert!(ev.restarted);
                assert!(s.shard_alive(0));
                // The restarted worker serves from a *fresh* table: the
                // first flow after restart gets the first port again.
                let mut burst3 = vec![flow_frame(4, 3000)];
                let v3 = s.process_burst(Direction::Internal, &mut burst3, Time::ZERO.plus(2));
                assert_eq!(v3, vec![Verdict::Forward(Direction::External)]);
                let mut burst1b = vec![flow_frame(2, 1025)];
                let v1b = s.process_burst(Direction::Internal, &mut burst1b, Time::ZERO.plus(3));
                assert_eq!(v1b, vec![Verdict::Forward(Direction::External)]);
                assert_ne!(
                    burst1b[0], burst1[0],
                    "restart cleared the old mapping: the flow re-maps to a new port"
                );
            },
        );
        assert_eq!(report.chaos.worker_downs, 1);
        assert_eq!(report.chaos.hard_deaths, 0);
    }

    #[test]
    fn halted_worker_is_retired_within_the_stall_budget() {
        let cfg = test_cfg();
        let mut table = ShardedFlowManager::new(&cfg, 1);
        let mut pools = vec![Mempool::new(64)];
        let mut scratches = vec![BurstScratch::default()];
        let ((), report) = with_shard_runtime(
            &mut table,
            &mut pools,
            &mut scratches,
            DEFAULT_RING_WORDS,
            false,
            |s| {
                s.set_stall_budget(Duration::from_millis(50));
                assert!(s.halt_worker(0));
                // The dead worker never answers: the burst returns
                // after the stall budget with the loss attributed.
                let mut burst = vec![flow_frame(2, 1025), flow_frame(2, 1026)];
                let v = s.process_burst(Direction::Internal, &mut burst, Time::ZERO);
                assert_eq!(v, vec![Verdict::Drop, Verdict::Drop]);
                assert_eq!(s.supervisor().hard_deaths, 1);
                assert_eq!(s.supervisor().frames_lost, 2);
                assert!(!s.shard_alive(0));
                assert!(!s.down_events()[0].restarted);
                // Later bursts drop at dispatch — bounded backpressure,
                // no ring traffic, no stall.
                let mut burst2 = vec![flow_frame(3, 2000)];
                let v2 = s.process_burst(Direction::Internal, &mut burst2, Time::ZERO.plus(1));
                assert_eq!(v2, vec![Verdict::Drop]);
                assert_eq!(s.supervisor().backpressure_drops, 1);
                // Sentinels to a dead shard are refused.
                assert!(!s.kill_worker(0));
            },
        );
        assert_eq!(report.chaos.hard_deaths, 1);
        assert_eq!(report.chaos.backpressure_drops, 1);
    }
}
