//! Seeded traffic: which frame arrives at each schedule position, the
//! virtual clock the NAT sees, and the check every transmitted frame
//! must pass.
//!
//! The program under test only ever receives the frames built here. The
//! seed fixes the flow universe (and with it the TCP/UDP assignment of
//! `FlowGen::mixed`), the order flows are visited in, and nothing else;
//! host timing never reaches the NAT, whose clock is a pure function of
//! the schedule position ([`Clock`]).

use netsim::tester::FlowGen;
use std::sync::Arc;
use vig_packet::{checksum, parse_l3l4, Direction, FlowFields, FlowId, Ip4, Ipv4Packet, Proto};
use vig_spec::NatConfig;

/// Every frame is a 64-byte minimum Ethernet frame, as in the paper.
pub const FRAME_LEN: usize = 64;
/// One frame's bytes.
pub type Frame = [u8; FRAME_LEN];

/// SplitMix64: small, seedable and the same on every platform.
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed` (streams are independent draws).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A seeded random permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// A seeded injective map from a workload's flow numbers into the
/// 2^24-flow `FlowGen` background universe: `k -> (k·mul + add) mod 2^24`
/// with `mul` odd. The seed therefore decides which addresses, ports and
/// (under `FlowGen::mixed`) which protocols the flows get.
#[derive(Clone, Copy)]
struct Universe {
    mul: u32,
    add: u32,
}

impl Universe {
    fn new(rng: &mut Rng) -> Universe {
        Universe {
            mul: (rng.next_u64() as u32) | 1,
            add: rng.next_u64() as u32,
        }
    }

    fn index(self, k: u32) -> u32 {
        k.wrapping_mul(self.mul).wrapping_add(self.add) & 0x00ff_ffff
    }
}

/// The NAT's virtual clock: frame `seq` is processed at
/// `base + align_down(seq, chunk) · gap` nanoseconds. A chunk is what
/// one service round admits, so every frame of a round shares its
/// round's instant, and the instant depends on the schedule alone.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    pub base_ns: u64,
    pub gap_ns: u64,
    pub chunk: u64,
}

impl Clock {
    pub fn now_ns(&self, seq: u64) -> u64 {
        self.base_ns + (seq - seq % self.chunk) * self.gap_ns
    }
}

/// The NAT's external endpoint pool, for the "source is from the pool"
/// part of the output check.
#[derive(Clone, Copy)]
pub struct Pool {
    first_ip: u32,
    start_port: u16,
    ports_per_ip: usize,
    capacity: usize,
}

impl Pool {
    pub fn of(cfg: &NatConfig) -> Pool {
        Pool {
            first_ip: cfg.external_ip.raw(),
            start_port: cfg.start_port,
            ports_per_ip: cfg.ports_per_ip(),
            capacity: cfg.capacity,
        }
    }

    pub fn contains(&self, ip: Ip4, port: u16) -> bool {
        let Some(ip_off) = ip.raw().checked_sub(self.first_ip) else {
            return false;
        };
        if port < self.start_port {
            return false;
        }
        let slot = ip_off as usize * self.ports_per_ip + usize::from(port - self.start_port);
        slot < self.capacity
    }
}

/// Parse a transmitted frame and verify its IPv4 header checksum and its
/// TCP/UDP checksum (pseudo-header included). `None` if either is wrong
/// or the frame does not parse.
pub fn checked_fields(frame: &[u8]) -> Option<FlowFields> {
    let (off, ff) = parse_l3l4(frame).ok()?;
    let ip = Ipv4Packet::parse(&frame[off.l3..]).ok()?;
    if !ip.verify_checksum() {
        return None;
    }
    let seg = ip.payload();
    let pseudo = checksum::pseudo_header_sum(
        ip.src().raw(),
        ip.dst().raw(),
        ip.protocol(),
        seg.len() as u16,
    );
    (checksum::fold(checksum::sum_words(seg, pseudo)) == 0xffff).then_some(ff)
}

fn build(gen: &FlowGen, fields: &FlowFields) -> Frame {
    let mut f = [0u8; FRAME_LEN];
    let n = gen.write_frame(fields, &mut f);
    assert_eq!(n, FRAME_LEN, "generated frames are 64 bytes");
    f
}

/// What the traffic model predicts the NAT's counters must read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Expect {
    /// Flows the schedule opened so far (setup included).
    pub created: u64,
    /// Flows whose lifetime ran out by the last instant (setup included).
    pub expired: u64,
}

/// A workload's traffic, driven from one thread: the generator side
/// builds frames in schedule order, the checker side verifies what the
/// NAT transmitted.
pub trait Traffic: Send {
    /// Build frame `seq` into `out` and return the port it arrives on.
    /// Called exactly once per position, in increasing order.
    fn frame(&mut self, seq: u64, out: &mut Frame) -> Direction;

    /// Check frame `seq` as transmitted on `out_port`.
    fn check(&mut self, seq: u64, out_port: Direction, frame: &[u8]) -> bool;

    /// The counters the NAT must show after processing every frame up
    /// to an instant of `last_now_ns`.
    fn expect(&self, last_now_ns: u64) -> Expect;

    /// Start a phase admitted `chunk` frames per round (the clock's
    /// chunk), at a position aligned to both the old and the new chunk.
    fn set_chunk(&mut self, _chunk: u64) {}
}

fn fid(f: &FlowFields) -> FlowId {
    FlowId {
        src_ip: f.src_ip,
        src_port: f.src_port,
        dst_ip: f.dst_ip,
        dst_port: f.dst_port,
        proto: f.proto,
    }
}

/// Established flows, outbound and return frames interleaved 1:1:
/// `steady_64k` (60,000 flows) and `runtime_1w` (1,000 flows). Every
/// flow is opened at set-up; the run only reads and refreshes state.
#[derive(Clone)]
pub struct Established {
    gen: FlowGen,
    pool: Pool,
    /// Flow `k`'s outbound 5-tuple (its internal endpoint is the source).
    fields: Vec<FlowFields>,
    out_frames: Vec<Frame>,
    ret_frames: Vec<Frame>,
    /// Flow `k`'s external endpoint, learnt from its set-up packet.
    ext: Vec<Option<(Ip4, u16)>>,
    /// Visit order. Random, and independent of set-up (allocation)
    /// order: visiting flows in slot order would hand the table a cache
    /// locality real traffic does not have.
    visit: Vec<u32>,
    /// Noop baseline: frames must leave unchanged instead of translated.
    passthrough: bool,
}

impl Established {
    pub fn new(flows: usize, cfg: &NatConfig, seed: u64) -> Established {
        let gen = FlowGen::mixed(500);
        let uni = Universe::new(&mut Rng::new(seed, 1));
        let fields: Vec<FlowFields> = (0..flows as u32)
            .map(|k| gen.background(uni.index(k)))
            .collect();
        let out_frames = fields.iter().map(|f| build(&gen, f)).collect();
        Established {
            visit: permutation(flows, &mut Rng::new(seed, 2)),
            gen,
            pool: Pool::of(cfg),
            fields,
            out_frames,
            ret_frames: Vec::new(),
            ext: vec![None; flows],
            passthrough: false,
        }
    }

    pub fn flows(&self) -> usize {
        self.fields.len()
    }

    /// The set-up frame that opens flow `k`.
    pub fn open_frame(&self, k: usize) -> &Frame {
        &self.out_frames[k]
    }

    /// Forget learnt endpoints before another set-up.
    pub fn reset(&mut self) {
        self.ext.iter_mut().for_each(|e| *e = None);
        self.ret_frames.clear();
    }

    /// Record flow `k`'s external endpoint from its translated set-up
    /// frame; false if the translation is wrong.
    pub fn learn(&mut self, k: usize, out_port: Direction, frame: &[u8]) -> bool {
        let ok = self.check_outbound(k, out_port, frame, None);
        if let Some(ff) = checked_fields(frame) {
            self.ext[k] = Some((ff.src_ip, ff.src_port));
        }
        ok
    }

    /// Build the return frames once every flow has an endpoint. For the
    /// noop baseline (`passthrough`), return frames are addressed to the
    /// pool as a NAT's would be, and must come out unchanged.
    pub fn finish_setup(&mut self, passthrough: bool) -> bool {
        self.passthrough = passthrough;
        let mut ok = true;
        self.ret_frames = (0..self.flows())
            .map(|k| {
                let (ip, port) = if passthrough {
                    (Ip4(self.pool.first_ip), 1 + k as u16)
                } else {
                    self.ext[k].unwrap_or_else(|| {
                        ok = false;
                        (Ip4(0), 0)
                    })
                };
                build(
                    &self.gen,
                    &self.gen.return_for_proto(ip, port, self.fields[k].proto),
                )
            })
            .collect();
        ok
    }

    /// The learnt endpoints, for comparing repeated set-ups.
    pub fn endpoints(&self) -> &[Option<(Ip4, u16)>] {
        &self.ext
    }

    /// Internal keys of `n` flows spread over the flow list.
    pub fn sample_fids(&self, n: usize) -> Vec<FlowId> {
        let step = (self.flows() / n).max(1);
        self.fields.iter().step_by(step).take(n).map(fid).collect()
    }

    fn flow_of(&self, seq: u64) -> (usize, Direction) {
        let n = self.flows() as u64;
        let pass = seq / 2;
        if seq.is_multiple_of(2) {
            (
                self.visit[(pass % n) as usize] as usize,
                Direction::Internal,
            )
        } else {
            (
                self.visit[((pass + n / 2) % n) as usize] as usize,
                Direction::External,
            )
        }
    }

    fn check_outbound(
        &self,
        k: usize,
        out_port: Direction,
        frame: &[u8],
        ext: Option<(Ip4, u16)>,
    ) -> bool {
        let Some(ff) = checked_fields(frame) else {
            return false;
        };
        let want = &self.fields[k];
        out_port == Direction::External
            && ff.proto == want.proto
            && ff.dst_ip == want.dst_ip
            && ff.dst_port == want.dst_port
            && self.pool.contains(ff.src_ip, ff.src_port)
            && ext.is_none_or(|e| e == (ff.src_ip, ff.src_port))
    }
}

impl Traffic for Established {
    fn frame(&mut self, seq: u64, out: &mut Frame) -> Direction {
        let (k, dir) = self.flow_of(seq);
        *out = match dir {
            Direction::Internal => self.out_frames[k],
            Direction::External => self.ret_frames[k],
        };
        dir
    }

    fn check(&mut self, seq: u64, out_port: Direction, frame: &[u8]) -> bool {
        let (k, dir) = self.flow_of(seq);
        if self.passthrough {
            let sent = match dir {
                Direction::Internal => &self.out_frames[k],
                Direction::External => &self.ret_frames[k],
            };
            return out_port == dir.flip() && frame == sent;
        }
        match dir {
            Direction::Internal => self.check_outbound(k, out_port, frame, self.ext[k]),
            Direction::External => {
                let Some(ff) = checked_fields(frame) else {
                    return false;
                };
                let want = &self.fields[k];
                out_port == Direction::Internal
                    && ff.proto == want.proto
                    && ff.dst_ip == want.src_ip
                    && ff.dst_port == want.src_port
                    && ff.src_ip == want.dst_ip
                    && ff.src_port == want.dst_port
            }
        }
    }

    fn expect(&self, _last_now_ns: u64) -> Expect {
        Expect {
            created: self.flows() as u64,
            expired: 0,
        }
    }
}

/// Flows kept alive in `churn_1m`'s sliding window.
pub const CHURN_WINDOW: usize = 800_000;
/// One packet in this many opens a new flow (and abandons the oldest).
pub const CHURN_NEW_EVERY: u64 = 8;
/// Virtual nanoseconds per packet.
pub const CHURN_GAP_NS: u64 = 250;
/// UDP lifetime. Every window flow is refreshed once per
/// `CHURN_WINDOW · 8/7` packets (≈ 229 ms of virtual time), well inside
/// it, so only abandoned flows ever expire.
pub const CHURN_LIFETIME_NS: u64 = 350_000_000;
/// Schedule positions simulated before the run starts. The live state at
/// this point (the window plus abandoned flows not yet expired) is what
/// set-up loads into the NAT: past one lifetime plus one refresh cycle,
/// so arrivals and expiries are already in balance when timing starts.
pub const CHURN_HISTORY: u64 = 3_200_000;

/// Outbound-only churn over a window of [`CHURN_WINDOW`] lanes. Packet
/// `n` with `n % 8 == 0` opens a new flow in lane `(n/8) % W`, whose
/// previous flow (the oldest in the window) is abandoned and left to
/// expire; every other packet refreshes the lane the seeded permutation
/// names next, so refreshes hit the table in random order.
#[derive(Clone)]
pub struct Churn {
    gen: FlowGen,
    uni: Universe,
    pool: Pool,
    clock: Clock,
    lanes: Vec<u32>,
    refresh: Vec<u32>,
    /// Next schedule position.
    next: u64,
    /// Per flow: instant of its latest packet.
    touch: Vec<u64>,
    /// Per flow: its external endpoint once seen (`ip << 16 | port`, 0 =
    /// not yet), so a refresh must keep the flow's mapping.
    ext: Vec<u64>,
    /// `seq -> flow` for frames generated but not yet checked.
    recent: Vec<u32>,
    /// Set-up: the flows alive when the run starts, grouped into bursts
    /// of one instant each, in time order. Replaying them leaves the NAT
    /// with exactly the live set and last-activity times the history
    /// would have.
    pub live_bursts: Arc<Vec<(u64, Vec<u32>)>>,
}

/// Frames that may be in flight between generation and check.
const RECENT: usize = 1 << 15;

impl Churn {
    pub fn new(cfg: &NatConfig, seed: u64, clock: Clock) -> Churn {
        let mut c = Churn {
            gen: FlowGen::new(Proto::Udp),
            uni: Universe::new(&mut Rng::new(seed, 1)),
            pool: Pool::of(cfg),
            clock,
            lanes: (0..CHURN_WINDOW as u32).collect(),
            refresh: permutation(CHURN_WINDOW, &mut Rng::new(seed, 2)),
            next: 0,
            touch: vec![clock.now_ns(0); CHURN_WINDOW],
            ext: vec![0; CHURN_WINDOW],
            recent: vec![u32::MAX; RECENT],
            live_bursts: Arc::default(),
        };
        while c.next < CHURN_HISTORY {
            c.step();
        }
        c.live_bursts = Arc::new(c.bursts_alive_now());
        c
    }

    /// Advance the schedule by one packet; returns its flow.
    fn step(&mut self) -> u32 {
        let n = self.next;
        self.next += 1;
        let flow = if n.is_multiple_of(CHURN_NEW_EVERY) {
            let lane = ((n / CHURN_NEW_EVERY) % CHURN_WINDOW as u64) as usize;
            let f = self.touch.len() as u32;
            self.touch.push(0);
            self.ext.push(0);
            self.lanes[lane] = f;
            f
        } else {
            let r = n - n.div_ceil(CHURN_NEW_EVERY);
            self.lanes[self.refresh[(r % CHURN_WINDOW as u64) as usize] as usize]
        };
        self.touch[flow as usize] = self.clock.now_ns(n);
        flow
    }

    /// See [`Churn::live_bursts`].
    fn bursts_alive_now(&self) -> Vec<(u64, Vec<u32>)> {
        let start = self.clock.now_ns(self.next);
        let mut live: Vec<u32> = (0..self.touch.len() as u32)
            .filter(|&f| self.touch[f as usize] + CHURN_LIFETIME_NS > start)
            .collect();
        live.sort_by_key(|&f| (self.touch[f as usize], f));
        let mut bursts: Vec<(u64, Vec<u32>)> = Vec::new();
        for f in live {
            let t = self.touch[f as usize];
            match bursts.last_mut() {
                Some((bt, v)) if *bt == t && v.len() < vignat::MAX_BURST => v.push(f),
                _ => bursts.push((t, vec![f])),
            }
        }
        bursts
    }

    /// Internal keys of `n` window flows spread over the lanes.
    pub fn sample_fids(&self, n: usize) -> Vec<FlowId> {
        let step = (CHURN_WINDOW / n).max(1);
        self.lanes
            .iter()
            .step_by(step)
            .take(n)
            .map(|&f| fid(&self.gen.background(self.uni.index(f))))
            .collect()
    }

    pub fn flow_frame(&self, f: u32) -> Frame {
        build(&self.gen, &self.gen.background(self.uni.index(f)))
    }

    /// Forget learnt endpoints before another set-up.
    pub fn reset_endpoints(&mut self) {
        self.ext.iter_mut().for_each(|e| *e = 0);
    }

    pub fn endpoints(&self) -> &[u64] {
        &self.ext
    }

    /// Check a translated frame of flow `f` and record its endpoint; a
    /// flow must keep the endpoint it was first seen with.
    pub fn learn(&mut self, f: u32, out_port: Direction, frame: &[u8]) -> bool {
        let Some(ff) = checked_fields(frame) else {
            return false;
        };
        let want = self.gen.background(self.uni.index(f));
        let ep = u64::from(ff.src_ip.raw()) << 16 | u64::from(ff.src_port);
        let seen = &mut self.ext[f as usize];
        let stable = *seen == 0 || *seen == ep;
        *seen = ep;
        out_port == Direction::External
            && ff.proto == want.proto
            && ff.dst_ip == want.dst_ip
            && ff.dst_port == want.dst_port
            && self.pool.contains(ff.src_ip, ff.src_port)
            && stable
    }
}

impl Traffic for Churn {
    fn frame(&mut self, seq: u64, out: &mut Frame) -> Direction {
        assert_eq!(seq, self.next, "churn frames are generated in order");
        let f = self.step();
        self.recent[seq as usize % RECENT] = f;
        *out = self.flow_frame(f);
        Direction::Internal
    }

    fn check(&mut self, seq: u64, out_port: Direction, frame: &[u8]) -> bool {
        if seq + RECENT as u64 <= self.next {
            return false; // checked too late to know its flow
        }
        let f = self.recent[seq as usize % RECENT];
        self.learn(f, out_port, frame)
    }

    fn set_chunk(&mut self, chunk: u64) {
        assert_eq!(
            self.next % self.clock.chunk.max(chunk),
            0,
            "phase starts mid-chunk"
        );
        self.clock.chunk = chunk;
    }

    fn expect(&self, last_now_ns: u64) -> Expect {
        let expired = self
            .touch
            .iter()
            .filter(|&&t| t + CHURN_LIFETIME_NS <= last_now_ns)
            .count() as u64;
        Expect {
            created: self.touch.len() as u64,
            expired,
        }
    }
}
