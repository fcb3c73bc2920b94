//! The inline harness: one generator thread feeds frames over a
//! `libvig::spsc` ring into [`BenchIo`], a `PacketIo` that the
//! unmodified `netsim::BackendDriver` drains on the calling (DUT)
//! thread into any `Middlebox`. Transmitted frames go back over a second
//! ring to the generator thread, which checks every one of them.

use crate::report::{Round, Slice, Slicer};
use crate::trace::Acc;
use crate::traffic::{Clock, Frame, Traffic, FRAME_LEN};
use libvig::spsc::{self, Consumer, Producer};
use libvig::time::Time;
use netsim::dpdk::{BufIdx, Mempool, PortStats};
use netsim::{BackendDriver, Middlebox, PacketIo};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vig_packet::Direction;

/// Ring record: one header word (`seq << 1 | port`) and the frame.
const REC: usize = 1 + FRAME_LEN / 8;
/// Frames the RX ring holds (the generator keeps it full when it can).
const RX_DEPTH: usize = 1024;
/// Frames the TX-completion ring back to the checker holds.
const TX_DEPTH: usize = 2048;
/// Mempool buffers. At most two admission chunks (≤ 128 frames) are
/// ever in use, so `Mempool::put`'s double-free scan walks roughly
/// `POOL_BUFS - 64` free entries per recycled frame.
const POOL_BUFS: usize = 4 * MAX_CHUNK;
/// Largest admission chunk (frames per service round).
const MAX_CHUNK: usize = 64;

fn port_bit(d: Direction) -> u64 {
    match d {
        Direction::Internal => 0,
        Direction::External => 1,
    }
}

fn port_of(bit: u64) -> Direction {
    if bit & 1 == 0 {
        Direction::Internal
    } else {
        Direction::External
    }
}

fn frame_words(frame: &[u8], rec: &mut [u64; REC]) {
    for (j, w) in rec[1..].iter_mut().enumerate() {
        let mut b = [0u8; 8];
        let src = frame
            .get(j * 8..(j * 8 + 8).min(frame.len()))
            .unwrap_or(&[]);
        b[..src.len()].copy_from_slice(src);
        *w = u64::from_le_bytes(b);
    }
}

fn words_frame(rec: &[u64], frame: &mut Frame) {
    for (j, w) in rec[1..REC].iter().enumerate() {
        frame[j * 8..j * 8 + 8].copy_from_slice(&w.to_le_bytes());
    }
}

/// Backend spans of the traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoSpans {
    /// `pump_rx` + `rx_burst`.
    pub rx: Acc,
    /// `tx_put` + `flush_tx` (which recycles buffers with `Mempool::put`).
    pub tx: Acc,
    /// Sum over recycled buffers of the free-list length `put` scanned.
    pub pool_free_sum: u64,
    pub puts: u64,
}

/// Open-loop latency log: frame `seq` was due at
/// `start + (seq - start_seq) · period`.
struct LatencyLog {
    start: Instant,
    start_seq: u64,
    period_ns: u64,
    samples_ns: Vec<u64>,
}

/// The benchmark's packet source and sink behind the `PacketIo` seam.
/// Frames enter from the RX ring one admission chunk at a time, and
/// only once the previous chunk is fully processed, so every service
/// round sees the same frames at the same virtual instant no matter how
/// the two threads are scheduled.
pub struct BenchIo {
    pool: Mempool,
    rx: Consumer,
    tx: Producer,
    fifo: [VecDeque<BufIdx>; 2],
    staged: Vec<(Direction, BufIdx)>,
    seq_of: Vec<u64>,
    words: Vec<u64>,
    frame: Frame,
    clock: Clock,
    next_seq: u64,
    end_seq: u64,
    stats: [PortStats; 2],
    latency: Option<LatencyLog>,
    pub spans: Option<IoSpans>,
    /// Set when the generator/checker thread has exited, so no wait on
    /// it can outlive it.
    gen_gone: Arc<AtomicBool>,
}

impl BenchIo {
    fn new(rx: Consumer, tx: Producer, clock: Clock) -> BenchIo {
        BenchIo {
            pool: Mempool::new(POOL_BUFS),
            rx,
            tx,
            fifo: [
                VecDeque::with_capacity(MAX_CHUNK),
                VecDeque::with_capacity(MAX_CHUNK),
            ],
            staged: Vec::with_capacity(2 * MAX_CHUNK),
            seq_of: vec![0; POOL_BUFS],
            words: vec![0; MAX_CHUNK * REC],
            frame: [0; FRAME_LEN],
            clock,
            next_seq: 0,
            end_seq: 0,
            stats: [PortStats::default(); 2],
            latency: None,
            spans: None,
            gen_gone: Arc::new(AtomicBool::new(false)),
        }
    }

    fn finished(&self) -> bool {
        self.next_seq == self.end_seq && self.fifo.iter().all(VecDeque::is_empty)
    }

    /// Panic (ending the run) if the generator thread is gone while the
    /// DUT still waits on it.
    fn check_generator(&self) {
        assert!(
            !self.gen_gone.load(Ordering::Acquire),
            "the generator thread exited early"
        );
    }

    fn start_span(&self) -> Option<Instant> {
        self.spans.is_some().then(Instant::now)
    }
}

impl PacketIo for BenchIo {
    fn queue_count(&self) -> usize {
        1
    }

    fn pool(&self) -> &Mempool {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut Mempool {
        &mut self.pool
    }

    fn pump_rx(&mut self) -> usize {
        let t0 = self.start_span();
        let mut admitted = 0;
        if self.next_seq < self.end_seq && self.fifo.iter().all(VecDeque::is_empty) {
            let want = self.clock.chunk.min(self.end_seq - self.next_seq) as usize;
            if self.rx.len() >= want * REC {
                let words = &mut self.words[..want * REC];
                let got = self.rx.pop_into(words);
                assert_eq!(got, want * REC, "ring records are whole");
                for rec in words.chunks_exact(REC) {
                    let seq = rec[0] >> 1;
                    assert_eq!(
                        seq,
                        self.next_seq + admitted as u64,
                        "frames arrive in schedule order"
                    );
                    words_frame(rec, &mut self.frame);
                    let buf = self.pool.get().expect("pool covers two chunks in flight");
                    self.pool.write_frame(buf, &self.frame);
                    self.seq_of[buf.0] = seq;
                    let p = port_bit(port_of(rec[0])) as usize;
                    self.fifo[p].push_back(buf);
                    self.stats[p].rx += 1;
                    admitted += 1;
                }
                self.next_seq += admitted as u64;
            }
        }
        if let (Some(t0), Some(s)) = (t0, &mut self.spans) {
            s.rx.close(t0);
        }
        admitted
    }

    fn rx_len(&self, dir: Direction, _q: usize) -> usize {
        self.fifo[port_bit(dir) as usize].len()
    }

    fn rx_burst(&mut self, dir: Direction, _q: usize, max: usize, out: &mut Vec<BufIdx>) -> usize {
        let t0 = self.start_span();
        let fifo = &mut self.fifo[port_bit(dir) as usize];
        let n = max.min(fifo.len());
        out.extend(fifo.drain(..n));
        if let (Some(t0), Some(s)) = (t0, &mut self.spans) {
            s.rx.close(t0);
        }
        n
    }

    fn tx_put(&mut self, dir: Direction, _q: usize, buf: BufIdx) -> bool {
        let t0 = self.start_span();
        self.staged.push((dir, buf));
        let st = &mut self.stats[port_bit(dir) as usize];
        st.tx += 1;
        st.tx_bytes += self.pool.frame(buf).len() as u64;
        if let (Some(t0), Some(s)) = (t0, &mut self.spans) {
            s.tx.close(t0);
        }
        true
    }

    fn flush_tx(&mut self) -> usize {
        let t0 = self.start_span();
        let n = self.staged.len();
        let sent_at = (n > 0 && self.latency.is_some()).then(Instant::now);
        let mut rec = [0u64; REC];
        for &(dir, buf) in &self.staged {
            let seq = self.seq_of[buf.0];
            rec[0] = seq << 1 | port_bit(dir);
            frame_words(self.pool.frame(buf), &mut rec);
            while self.tx.capacity() - self.tx.len() < REC {
                self.check_generator(); // the checker drains this ring
                std::hint::spin_loop();
            }
            self.tx.push_slice(&rec);
            if let (Some(log), Some(t)) = (&mut self.latency, sent_at) {
                let due = log.start + Duration::from_nanos((seq - log.start_seq) * log.period_ns);
                log.samples_ns
                    .push(t.saturating_duration_since(due).as_nanos() as u64);
            }
            if let Some(s) = &mut self.spans {
                s.pool_free_sum += self.pool.available() as u64;
                s.puts += 1;
            }
            self.pool.put(buf);
        }
        self.staged.clear();
        if let (Some(t0), Some(s)) = (t0, &mut self.spans) {
            s.tx.close(t0);
        }
        n
    }

    fn queue_stats(&self, dir: Direction, _q: usize) -> PortStats {
        self.stats[port_bit(dir) as usize]
    }
}

/// What the generator/checker thread saw during one phase.
#[derive(Debug, Default)]
pub struct GenResult {
    /// Whether the generator thread got its CPU.
    pub pinned: bool,
    pub checked: u64,
    pub bad: u64,
    /// Open loop only: how late each frame entered the ring.
    pub lag_ns: Vec<u64>,
}

/// What the DUT thread measured during one phase.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub offered: u64,
    pub forwarded: u64,
    pub dropped: u64,
    pub tx_dropped: u64,
    pub bursts: u64,
    /// Wall time of the DUT loop.
    pub dut_ns: u64,
    /// Time inside `BackendDriver::service_once` (traced runs).
    pub round_span: Acc,
    /// Every productive round.
    pub rounds: Vec<Round>,
    /// The phase cut into slices (see [`Phase::slice_rounds`]).
    pub slices: Vec<Slice>,
    pub polls: u64,
    pub idle_polls: u64,
    /// Open loop only: scheduled send time to TX, per frame.
    pub latency_ns: Vec<u64>,
    pub gen: GenResult,
}

impl PhaseResult {
    /// Frames offered but not forwarded with a correct translation.
    pub fn failures(&self) -> u64 {
        (self.offered - self.gen.checked.min(self.offered)) + self.gen.bad
    }
}

/// How the generator offers a phase's frames.
#[derive(Clone, Copy)]
pub enum Load {
    /// Keep the RX ring full: saturation throughput.
    Closed,
    /// One frame every `period_ns`, on schedule, whatever the DUT does.
    Open { period_ns: u64 },
}

/// One measured phase: schedule positions `start..start + len`,
/// admitted `chunk` frames per round.
#[derive(Clone, Copy)]
pub struct Phase {
    pub start: u64,
    pub len: u64,
    pub chunk: u64,
    pub load: Load,
    /// Record the round span (and, with `Harness::set_traced`, the
    /// backend spans).
    pub traced: bool,
    /// Productive rounds per statistics slice.
    pub slice_rounds: u64,
}

/// The driver over [`BenchIo`] plus the generator-side ring ends.
pub struct Harness {
    driver: BackendDriver<BenchIo>,
    feed: Producer,
    completions: Consumer,
    gen_cpu: Option<usize>,
}

impl Harness {
    pub fn new(clock: Clock, gen_cpu: Option<usize>) -> Harness {
        let (feed, rx) = spsc::channel(RX_DEPTH * REC);
        let (tx, completions) = spsc::channel(TX_DEPTH * REC);
        Harness {
            driver: BackendDriver::new(BenchIo::new(rx, tx, clock)),
            feed,
            completions,
            gen_cpu,
        }
    }

    pub fn set_traced(&mut self, on: bool) {
        self.driver.io_mut().spans = on.then(IoSpans::default);
    }

    pub fn io_spans(&self) -> IoSpans {
        self.driver.io().spans.unwrap_or_default()
    }

    /// Run `p` through `nf`.
    pub fn run_phase<M: Middlebox, T: Traffic>(
        &mut self,
        nf: &mut M,
        traffic: &mut T,
        p: &Phase,
    ) -> PhaseResult {
        let Phase {
            start,
            len,
            chunk,
            load,
            traced,
            slice_rounds,
        } = *p;
        assert!(chunk as usize <= MAX_CHUNK && len % chunk == 0 && start % chunk == 0);
        traffic.set_chunk(chunk);
        let paced_start = Instant::now() + Duration::from_millis(2);
        {
            let io = self.driver.io_mut();
            io.clock.chunk = chunk;
            io.next_seq = start;
            io.end_seq = start + len;
            io.latency = match load {
                Load::Closed => None,
                Load::Open { period_ns } => Some(LatencyLog {
                    start: paced_start,
                    start_seq: start,
                    period_ns,
                    samples_ns: Vec::with_capacity(len as usize),
                }),
            };
        }
        let polls0 = self.driver.event_loop().poller().stats();
        let done = AtomicBool::new(false);
        let dut_gone = AtomicBool::new(false);
        let forwarded_total = AtomicU64::new(0);
        // Sample vectors are sized up front, so peak memory does not
        // depend on when they happen to grow.
        let mut r = PhaseResult {
            offered: len,
            rounds: Vec::with_capacity((len / chunk) as usize),
            ..PhaseResult::default()
        };
        let (feed, completions, gen_cpu) = (&mut self.feed, &mut self.completions, self.gen_cpu);
        let gone = Arc::clone(&self.driver.io().gen_gone);
        gone.store(false, Ordering::Release);
        let driver = &mut self.driver;
        std::thread::scope(|s| {
            let gen = s.spawn(|| {
                let _exit = OnExit(&gone);
                let pinned = gen_cpu.is_some_and(crate::host::pin);
                let pace = match load {
                    Load::Closed => None,
                    Load::Open { period_ns } => Some((paced_start, period_ns)),
                };
                let ends = Ends {
                    done: &done,
                    dut_gone: &dut_gone,
                    forwarded: &forwarded_total,
                };
                let mut g = generate(traffic, feed, completions, start, start + len, pace, ends);
                g.pinned = pinned;
                g
            });
            let _dut_exit = OnExit(&dut_gone);
            if let Load::Closed = load {
                // Time a full ring, not the generator's start-up.
                let io = driver.io_mut();
                let want = (len as usize).min(RX_DEPTH) * REC;
                while io.rx.len() < want {
                    io.check_generator();
                    std::hint::spin_loop();
                }
            }
            let mut slicer = Slicer::new(slice_rounds);
            let t_start = Instant::now();
            let mut t_prev = t_start;
            while !driver.io().finished() {
                let now = Time(driver.io().clock.now_ns(driver.io().next_seq));
                let t_call = traced.then(Instant::now);
                let st = driver.service_once(nf, now);
                let t = Instant::now();
                if let Some(t_call) = t_call {
                    r.round_span.ns += t.duration_since(t_call).as_nanos() as u64;
                    r.round_span.calls += 1;
                }
                let frames = st.forwarded + st.dropped + st.tx_dropped;
                if frames == 0 {
                    driver.io().check_generator();
                } else {
                    let round = Round {
                        frames,
                        service_ns: t.duration_since(t_prev).as_nanos() as u64,
                    };
                    r.rounds.push(round);
                    slicer.round(round);
                }
                r.forwarded += st.forwarded;
                r.dropped += st.dropped;
                r.tx_dropped += st.tx_dropped;
                r.bursts += st.bursts;
                t_prev = t;
            }
            r.dut_ns = t_prev.duration_since(t_start).as_nanos() as u64;
            r.slices = slicer.finish();
            forwarded_total.store(r.forwarded, Ordering::Relaxed);
            done.store(true, Ordering::Release);
            r.gen = gen.join().expect("generator thread panicked");
        });
        let polls1 = self.driver.event_loop().poller().stats();
        r.polls = polls1.polls - polls0.polls;
        r.idle_polls = polls1.idle_polls - polls0.idle_polls;
        if let Some(log) = self.driver.io_mut().latency.take() {
            r.latency_ns = log.samples_ns;
        }
        r
    }
}

/// Raises its flag when dropped, unwinding included.
struct OnExit<'a>(&'a AtomicBool);

impl Drop for OnExit<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// How the generator/checker thread learns that the DUT is done.
struct Ends<'a> {
    /// Set (Release) once the DUT has forwarded its last frame.
    done: &'a AtomicBool,
    /// Set when the DUT side exits, unwinding included.
    dut_gone: &'a AtomicBool,
    /// Frames the DUT forwarded; valid once `done` is set.
    forwarded: &'a AtomicU64,
}

/// The generator/checker loop: offer `start..end` (closed loop, or paced
/// on `pace`), and check every transmitted frame until the DUT is done
/// and all of its forwarded frames have been seen, or the DUT is gone.
fn generate<T: Traffic>(
    traffic: &mut T,
    feed: &mut Producer,
    completions: &mut Consumer,
    start: u64,
    end: u64,
    pace: Option<(Instant, u64)>,
    ends: Ends<'_>,
) -> GenResult {
    let mut res = GenResult {
        lag_ns: Vec::with_capacity(if pace.is_some() {
            (end - start) as usize
        } else {
            0
        }),
        ..GenResult::default()
    };
    let mut rec = [0u64; REC];
    let mut frame = [0u8; FRAME_LEN];
    let mut words = vec![0u64; 64 * REC];
    let mut seq = start;
    loop {
        let mut progress = false;
        for _ in 0..64 {
            if seq == end {
                break;
            }
            let due = pace.map(|(t0, period)| t0 + Duration::from_nanos((seq - start) * period));
            if due.is_some_and(|d| Instant::now() < d) {
                break;
            }
            if feed.len() + REC > RX_DEPTH * REC {
                break; // ring full: a paced frame waits, and its wait counts as lag
            }
            let port = traffic.frame(seq, &mut frame);
            rec[0] = seq << 1 | port_bit(port);
            frame_words(&frame, &mut rec);
            let pushed = feed.push_slice(&rec);
            debug_assert_eq!(pushed, REC);
            if let Some(d) = due {
                res.lag_ns
                    .push(Instant::now().saturating_duration_since(d).as_nanos() as u64);
            }
            seq += 1;
            progress = true;
        }
        let got = completions.pop_into(&mut words);
        for r in words[..got].chunks_exact(REC) {
            words_frame(r, &mut frame);
            if !traffic.check(r[0] >> 1, port_of(r[0]), &frame) {
                res.bad += 1;
            }
            res.checked += 1;
        }
        progress |= got > 0;
        let done = ends.done.load(Ordering::Acquire);
        if done && seq == end && res.checked >= ends.forwarded.load(Ordering::Relaxed) {
            return res;
        }
        if !done && ends.dut_gone.load(Ordering::Acquire) {
            return res; // the DUT side panicked; its panic ends the run
        }
        if !progress {
            std::hint::spin_loop();
        }
    }
}
