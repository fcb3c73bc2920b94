//! The DPDK-analog runtime: mempool, rings, devices.
//!
//! Faithful to the parts of DPDK the paper's NFs relied on:
//!
//! * **all memory preallocated** — `Mempool::new` grabs every buffer up
//!   front, `get`/`put` are free-list pushes/pops, nothing allocates on
//!   the datapath (the property §5.1.1 of the paper builds on);
//! * **fixed-capacity rings** — like `rte_ring`, excess traffic is
//!   dropped at the RX ring and counted, which is where "loss" in the
//!   RFC 2544 throughput experiments comes from;
//! * **port statistics** — rx/tx/drop counters per queue, the numbers
//!   the harness reads to compute loss rates.

/// Default buffer size: one standard mbuf data room (holds any frame the
/// evaluation uses; the paper's experiments are 64-byte frames).
pub const MBUF_SIZE: usize = 2048;

/// A handle to a mempool buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufIdx(pub usize);

/// Preallocated packet-buffer pool (DPDK `rte_mempool` analog).
#[derive(Debug)]
pub struct Mempool {
    bufs: Vec<Vec<u8>>,
    lens: Vec<usize>,
    free: Vec<usize>,
}

impl Mempool {
    /// Preallocate `count` buffers of [`MBUF_SIZE`] bytes.
    pub fn new(count: usize) -> Mempool {
        assert!(count > 0, "mempool must hold at least one buffer");
        Mempool {
            bufs: (0..count).map(|_| vec![0u8; MBUF_SIZE]).collect(),
            lens: vec![0; count],
            free: (0..count).rev().collect(),
        }
    }

    /// Total buffers.
    pub fn capacity(&self) -> usize {
        self.bufs.len()
    }

    /// Buffers currently available.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Take a buffer. `None` when exhausted (DPDK returns `ENOMEM`; NFs
    /// must treat it as packet loss, never crash — the leak Vigor caught
    /// in VigNAT was exactly a buffer that never came back here).
    pub fn get(&mut self) -> Option<BufIdx> {
        self.free.pop().map(BufIdx)
    }

    /// Return a buffer.
    ///
    /// Panics on double-free — on the datapath this is a bug class the
    /// paper proves absent (P2); the simulator enforces it dynamically.
    pub fn put(&mut self, idx: BufIdx) {
        assert!(
            idx.0 < self.bufs.len(),
            "foreign buffer returned to mempool"
        );
        assert!(
            !self.free.contains(&idx.0),
            "double free of mempool buffer {}",
            idx.0
        );
        self.lens[idx.0] = 0;
        self.free.push(idx.0);
    }

    /// Write a frame into a buffer, recording its length.
    pub fn write_frame(&mut self, idx: BufIdx, frame: &[u8]) {
        assert!(frame.len() <= MBUF_SIZE, "frame exceeds mbuf data room");
        self.bufs[idx.0][..frame.len()].copy_from_slice(frame);
        self.lens[idx.0] = frame.len();
    }

    /// The valid bytes of a buffer.
    pub fn frame(&self, idx: BufIdx) -> &[u8] {
        &self.bufs[idx.0][..self.lens[idx.0]]
    }

    /// Mutable access to the valid bytes of a buffer.
    pub fn frame_mut(&mut self, idx: BufIdx) -> &mut [u8] {
        let len = self.lens[idx.0];
        &mut self.bufs[idx.0][..len]
    }
}

/// Fixed-capacity FIFO of `(buffer, length-at-enqueue)` — the
/// `rte_ring` analog backing RX/TX queues.
#[derive(Debug)]
pub struct Ring {
    slots: Vec<BufIdx>,
    head: usize,
    len: usize,
}

impl Ring {
    /// Ring with room for `capacity` descriptors.
    pub fn new(capacity: usize) -> Ring {
        assert!(capacity > 0, "ring capacity must be non-zero");
        Ring {
            slots: vec![BufIdx(0); capacity],
            head: 0,
            len: 0,
        }
    }

    /// Capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupied descriptors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when full.
    pub fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// Enqueue; `false` when full (caller counts a drop).
    pub fn push(&mut self, buf: BufIdx) -> bool {
        if self.is_full() {
            return false;
        }
        let tail = (self.head + self.len) % self.slots.len();
        self.slots[tail] = buf;
        self.len += 1;
        true
    }

    /// Dequeue.
    pub fn pop(&mut self) -> Option<BufIdx> {
        if self.len == 0 {
            return None;
        }
        let buf = self.slots[self.head];
        self.head = (self.head + 1) % self.slots.len();
        self.len -= 1;
        Some(buf)
    }
}

/// Per-port statistics (DPDK `rte_eth_stats` analog).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Frames accepted into the RX ring.
    pub rx: u64,
    /// Frames dropped at the RX ring (imissed).
    pub rx_dropped: u64,
    /// Frames transmitted.
    pub tx: u64,
    /// Bytes transmitted (`obytes`). Attributed when the frame is
    /// handed to the transmit path: at `tx_put` for the device model
    /// (the NIC owns the frame from that point), at flush time for the
    /// OS backends (only a frame the kernel accepted counts).
    pub tx_bytes: u64,
}

/// A simulated multi-queue NIC port: N independent RX/TX ring pairs
/// with per-queue statistics — the device model behind RSS (receive
/// side scaling), where the NIC hashes each arriving frame and steers
/// it to one of several hardware queues so that independent cores can
/// drain them concurrently.
///
/// The classification step itself is *not* here: which queue a frame
/// belongs to is the RSS function's business
/// (`netsim::frame_env::RssClassifier`, shared with the software
/// dispatch of `ParallelShardedNat`), and the tester applies it before
/// calling [`MultiQueueDevice::offer_to`] — exactly like hardware,
/// where the hash unit runs before the descriptor is posted to a queue.
///
/// Queues are fully independent: a full RX ring drops (and counts) on
/// that queue only and can never stall or corrupt a sibling — the
/// per-queue overflow tests pin this down.
#[derive(Debug)]
pub struct MultiQueueDevice {
    rx: Vec<Ring>,
    tx: Vec<Ring>,
    stats: Vec<PortStats>,
}

impl MultiQueueDevice {
    /// A port with `queues` RX/TX ring pairs of `ring_size` descriptors
    /// each. A 1-queue device is the classic single-ring port (the
    /// paper's setup used default DPDK rings; 512 descriptors is
    /// representative).
    pub fn new(queues: usize, ring_size: usize) -> MultiQueueDevice {
        assert!(queues > 0, "need at least one queue");
        MultiQueueDevice {
            rx: (0..queues).map(|_| Ring::new(ring_size)).collect(),
            tx: (0..queues).map(|_| Ring::new(ring_size)).collect(),
            stats: vec![PortStats::default(); queues],
        }
    }

    /// Number of RX/TX queue pairs.
    pub fn queue_count(&self) -> usize {
        self.rx.len()
    }

    /// Tester-side: offer a frame to RX queue `q` (the queue the RSS
    /// classifier picked). Returns `false` — and counts a drop in *this
    /// queue's* stats — when that ring is full; siblings are untouched.
    pub fn offer_to(&mut self, q: usize, buf: BufIdx) -> bool {
        if self.rx[q].push(buf) {
            self.stats[q].rx += 1;
            true
        } else {
            self.stats[q].rx_dropped += 1;
            false
        }
    }

    /// Frames currently waiting in RX queue `q` (the readiness signal
    /// an epoll-style poller level-triggers on).
    pub fn rx_len(&self, q: usize) -> usize {
        self.rx[q].len()
    }

    /// Tester-side: record an RX drop on queue `q` without touching the
    /// ring — the accounting for a frame lost *before* the ring (e.g.
    /// mempool exhaustion, a NIC with no free descriptors).
    pub fn note_rx_drop(&mut self, q: usize) {
        self.stats[q].rx_dropped += 1;
    }

    /// NF-side: take the next received frame from RX queue `q`.
    pub fn rx_take(&mut self, q: usize) -> Option<BufIdx> {
        self.rx[q].pop()
    }

    /// NF-side: drain up to `max` frames from RX queue `q` into `out`
    /// (the per-queue `rte_eth_rx_burst` analog). Returns the count.
    pub fn rx_burst(&mut self, q: usize, max: usize, out: &mut Vec<BufIdx>) -> usize {
        let mut n = 0;
        while n < max {
            match self.rx[q].pop() {
                Some(b) => {
                    out.push(b);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// NF-side: queue a frame of `bytes` bytes on TX queue `q`
    /// (run-to-completion cores transmit on their own queue index).
    pub fn tx_put(&mut self, q: usize, buf: BufIdx, bytes: usize) -> bool {
        let ok = self.tx[q].push(buf);
        if ok {
            self.stats[q].tx += 1;
            self.stats[q].tx_bytes += bytes as u64;
        }
        ok
    }

    /// Tester-side: collect a transmitted frame from TX queue `q`.
    pub fn tx_take(&mut self, q: usize) -> Option<BufIdx> {
        self.tx[q].pop()
    }

    /// Queue `q`'s counters.
    pub fn queue_stats(&self, q: usize) -> PortStats {
        self.stats[q]
    }

    /// Port-wide counters: the sum over queues (what `rte_eth_stats`
    /// reports at the port level).
    pub fn port_stats(&self) -> PortStats {
        self.stats
            .iter()
            .fold(PortStats::default(), |a, s| PortStats {
                rx: a.rx + s.rx,
                rx_dropped: a.rx_dropped + s.rx_dropped,
                tx: a.tx + s.tx,
                tx_bytes: a.tx_bytes + s.tx_bytes,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mempool_get_put_roundtrip() {
        let mut p = Mempool::new(2);
        let a = p.get().unwrap();
        let b = p.get().unwrap();
        assert_ne!(a, b);
        assert!(p.get().is_none(), "exhausted pool yields None");
        p.put(a);
        assert_eq!(p.available(), 1);
        let c = p.get().unwrap();
        assert_eq!(c, a, "free list reuses buffers");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn mempool_double_free_is_caught() {
        let mut p = Mempool::new(2);
        let a = p.get().unwrap();
        p.put(a);
        p.put(a);
    }

    #[test]
    fn mempool_frames_roundtrip() {
        let mut p = Mempool::new(1);
        let a = p.get().unwrap();
        p.write_frame(a, &[1, 2, 3, 4]);
        assert_eq!(p.frame(a), &[1, 2, 3, 4]);
        p.frame_mut(a)[0] = 9;
        assert_eq!(p.frame(a), &[9, 2, 3, 4]);
    }

    #[test]
    fn ring_fifo_and_overflow() {
        let mut r = Ring::new(2);
        assert!(r.push(BufIdx(1)));
        assert!(r.push(BufIdx(2)));
        assert!(!r.push(BufIdx(3)), "full ring rejects");
        assert_eq!(r.pop(), Some(BufIdx(1)));
        assert!(r.push(BufIdx(3)));
        assert_eq!(r.pop(), Some(BufIdx(2)));
        assert_eq!(r.pop(), Some(BufIdx(3)));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn device_counts_loss() {
        let mut d = MultiQueueDevice::new(1, 1);
        assert!(d.offer_to(0, BufIdx(0)));
        assert!(
            !d.offer_to(0, BufIdx(1)),
            "second offer overflows the 1-slot ring"
        );
        assert_eq!(d.queue_stats(0).rx, 1);
        assert_eq!(d.queue_stats(0).rx_dropped, 1);
        let got = d.rx_take(0).unwrap();
        assert!(d.tx_put(0, got, 64));
        assert_eq!(d.queue_stats(0).tx, 1);
        assert_eq!(d.queue_stats(0).tx_bytes, 64);
        assert_eq!(d.tx_take(0), Some(BufIdx(0)));
    }

    #[test]
    fn multiqueue_queues_are_independent() {
        let mut d = MultiQueueDevice::new(3, 2);
        assert_eq!(d.queue_count(), 3);
        // Fill queue 1 past capacity; queues 0 and 2 keep working.
        assert!(d.offer_to(1, BufIdx(0)));
        assert!(d.offer_to(1, BufIdx(1)));
        assert!(!d.offer_to(1, BufIdx(2)), "queue 1 overflows");
        assert!(d.offer_to(0, BufIdx(3)));
        assert!(d.offer_to(2, BufIdx(4)));
        assert_eq!(d.queue_stats(1).rx_dropped, 1);
        assert_eq!(d.queue_stats(0).rx_dropped, 0);
        assert_eq!(d.queue_stats(2).rx_dropped, 0);
        assert_eq!(d.rx_len(0), 1);
        assert_eq!(d.rx_len(1), 2);
        assert_eq!(d.rx_len(2), 1);
        let total = d.port_stats();
        assert_eq!((total.rx, total.rx_dropped, total.tx), (4, 1, 0));
    }

    #[test]
    fn multiqueue_rx_tx_roundtrip_per_queue() {
        let mut d = MultiQueueDevice::new(2, 4);
        for i in 0..3 {
            assert!(d.offer_to(0, BufIdx(i)));
        }
        let mut out = Vec::new();
        assert_eq!(d.rx_burst(0, 2, &mut out), 2);
        assert_eq!(out, vec![BufIdx(0), BufIdx(1)]);
        assert_eq!(d.rx_burst(1, 8, &mut out), 0, "sibling queue is empty");
        assert!(d.tx_put(0, BufIdx(0), 128));
        assert_eq!(d.tx_take(0), Some(BufIdx(0)));
        assert_eq!(d.tx_take(1), None);
        assert_eq!(d.queue_stats(0).tx, 1);
        assert_eq!(d.queue_stats(0).tx_bytes, 128);
        assert_eq!(d.queue_stats(1).tx, 0);
        assert_eq!(d.port_stats().tx_bytes, 128, "port sum includes bytes");
    }

    #[test]
    fn ring_wraps_many_times() {
        let mut r = Ring::new(3);
        for i in 0..100 {
            assert!(r.push(BufIdx(i)));
            assert_eq!(r.pop(), Some(BufIdx(i)));
        }
    }
}
