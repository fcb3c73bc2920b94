//! Spans for the traced run, recorded from outside the library: around
//! each call the benchmark makes into a layer's public API.
//!
//! Spans are aggregated in memory as they close (total time and call
//! count per span name) and reported when the run ends. Every child span
//! lies inside its parent's interval, so a layer's self time is its
//! total minus its children's totals.

use libvig::time::Time;
use netsim::dpdk::{BufIdx, Mempool};
use netsim::frame_env::{BurstEnv, BurstScratch};
use netsim::{Middlebox, Verdict};
use std::cell::Cell;
use std::time::Instant;
use vig_packet::{Direction, ExtKey, Flow, FlowId, Ip4};
use vig_spec::NatConfig;
use vignat::loop_body::DropReason;
use vignat::{nat_process_batch, FlowManager, FlowTable, IterationOutcome, MAX_BURST};

/// Total time and call count of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub ns: u64,
    pub calls: u64,
}

impl Acc {
    /// Close a span opened at `t0`.
    #[inline]
    pub fn close(&mut self, t0: Instant) {
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    pub fn per(&self, n: u64) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.ns as f64 / n as f64
        }
    }
}

/// Flow-table spans and counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct TableSpans {
    pub expire: Acc,
    pub expired: u64,
    pub probe_batch: Acc,
    pub probe_queries: u64,
    pub probe_hits: u64,
    pub lookup_internal: Acc,
    pub lookup_external: Acc,
    pub rejuvenate: Acc,
    /// `allocate_slot_routed` + `insert_hashed`, one span per new flow.
    pub allocate: Acc,
}

impl TableSpans {
    /// Time spent inside the flow table.
    pub fn total_ns(&self) -> u64 {
        self.expire.ns
            + self.probe_batch.ns
            + self.lookup_internal.ns
            + self.lookup_external.ns
            + self.rejuvenate.ns
            + self.allocate.ns
    }
}

/// `FlowManager` behind the `FlowTable` seam, timing each call that does
/// work. The pure slot-to-endpoint arithmetic is left untimed (it would
/// cost more to time than to run) and counts as loop-body time.
pub struct TimedTable {
    pub inner: FlowManager,
    spans: TableSpans,
    /// The two lookups take `&self`, so their spans close through cells.
    lookup_internal: Cell<Acc>,
    lookup_external: Cell<Acc>,
    /// Start of the pending `allocate_slot_routed`, closed by the
    /// `insert_hashed` the loop body must issue next.
    alloc_t0: Option<Instant>,
}

impl TimedTable {
    pub fn new(cfg: &NatConfig) -> TimedTable {
        TimedTable {
            inner: FlowManager::new(cfg),
            spans: TableSpans::default(),
            lookup_internal: Cell::default(),
            lookup_external: Cell::default(),
            alloc_t0: None,
        }
    }

    /// Forget the spans recorded so far (set-up's).
    pub fn reset_spans(&mut self) {
        self.spans = TableSpans::default();
        self.lookup_internal.set(Acc::default());
        self.lookup_external.set(Acc::default());
    }

    pub fn spans(&self) -> TableSpans {
        TableSpans {
            lookup_internal: self.lookup_internal.get(),
            lookup_external: self.lookup_external.get(),
            ..self.spans
        }
    }
}

fn close_cell(cell: &Cell<Acc>, t0: Instant) {
    let mut a = cell.get();
    a.close(t0);
    cell.set(a);
}

impl FlowTable for TimedTable {
    fn flow_count(&self) -> usize {
        self.inner.flow_count()
    }

    fn table_capacity(&self) -> usize {
        self.inner.table_capacity()
    }

    fn expire(&mut self, threshold: Time) -> usize {
        let t0 = Instant::now();
        let n = FlowTable::expire(&mut self.inner, threshold);
        self.spans.expire.close(t0);
        self.spans.expired += n as u64;
        n
    }

    fn lookup_internal_hashed(&self, fid: &FlowId, hash: u64) -> Option<(usize, &Flow)> {
        let t0 = Instant::now();
        let r = self.inner.lookup_internal_hashed(fid, hash);
        close_cell(&self.lookup_internal, t0);
        r
    }

    fn probe_internal_batch(
        &mut self,
        fids: &[FlowId],
        hashes: &[u64],
        out: &mut Vec<Option<(usize, Flow)>>,
    ) {
        let before = out.len();
        let t0 = Instant::now();
        self.inner.probe_internal_batch(fids, hashes, out);
        self.spans.probe_batch.close(t0);
        self.spans.probe_queries += fids.len() as u64;
        self.spans.probe_hits += out[before..].iter().filter(|r| r.is_some()).count() as u64;
    }

    fn lookup_external_hashed(&self, ek: &ExtKey, hash: u64) -> Option<(usize, &Flow)> {
        let t0 = Instant::now();
        let r = self.inner.lookup_external_hashed(ek, hash);
        close_cell(&self.lookup_external, t0);
        r
    }

    fn rejuvenate(&mut self, slot: usize, now: Time, dir: Direction, tcp_flags: u8) {
        let t0 = Instant::now();
        FlowTable::rejuvenate(&mut self.inner, slot, now, dir, tcp_flags);
        self.spans.rejuvenate.close(t0);
    }

    fn allocate_slot_routed(&mut self, fid_hash: u64, now: Time) -> Option<usize> {
        let t0 = Instant::now();
        let slot = self.inner.allocate_slot_routed(fid_hash, now);
        if slot.is_some() {
            self.alloc_t0 = Some(t0);
        } else {
            self.spans.allocate.close(t0);
        }
        slot
    }

    fn endpoint_of_slot(&self, slot: usize) -> (Ip4, u16) {
        self.inner.endpoint_of_slot(slot)
    }

    fn port_offset_of_slot(&self, slot: usize) -> u16 {
        FlowTable::port_offset_of_slot(&self.inner, slot)
    }

    fn insert_hashed(
        &mut self,
        slot: usize,
        fid: FlowId,
        ext_ip: Ip4,
        ext_port: u16,
        fid_hash: u64,
        tcp_flags: u8,
    ) {
        let t0 = self.alloc_t0.take().unwrap_or_else(Instant::now);
        FlowTable::insert_hashed(
            &mut self.inner,
            slot,
            fid,
            ext_ip,
            ext_port,
            fid_hash,
            tcp_flags,
        );
        self.spans.allocate.close(t0);
    }

    fn check_coherence(&self) -> Result<(), String> {
        self.inner.check_coherence()
    }
}

/// Every `DropReason`, in declaration order, with its count's metric name.
pub const DROP_REASONS: [(DropReason, &str); 12] = [
    (DropReason::ShortL2, "loop_body.drop.ShortL2"),
    (DropReason::NotIpv4, "loop_body.drop.NotIpv4"),
    (DropReason::ShortL3, "loop_body.drop.ShortL3"),
    (DropReason::BadVersion, "loop_body.drop.BadVersion"),
    (DropReason::BadIhl, "loop_body.drop.BadIhl"),
    (DropReason::BadTotalLen, "loop_body.drop.BadTotalLen"),
    (DropReason::Fragment, "loop_body.drop.Fragment"),
    (DropReason::BadProto, "loop_body.drop.BadProto"),
    (DropReason::HeaderOverrun, "loop_body.drop.HeaderOverrun"),
    (DropReason::ShortL4, "loop_body.drop.ShortL4"),
    (DropReason::NoFlow, "loop_body.drop.NoFlow"),
    (DropReason::TableFull, "loop_body.drop.TableFull"),
];

/// The verified NAT as `VigNatMb::process_burst` runs it (same
/// `BurstEnv::new` → `nat_process_batch` → `finish` sequence, same
/// chunking), over a [`TimedTable`], with the middlebox and loop-body
/// spans around it and drop reasons counted. `VigNatMb` cannot take a
/// wrapped table (its constructor over a table is private), hence this
/// copy of its burst path.
pub struct TracedNat {
    cfg: NatConfig,
    pub table: TimedTable,
    scratch: BurstScratch,
    pub expired_total: u64,
    pub middlebox: Acc,
    pub loop_body: Acc,
    pub drops: [u64; 12],
}

impl TracedNat {
    pub fn new(cfg: NatConfig) -> TracedNat {
        TracedNat {
            table: TimedTable::new(&cfg),
            cfg,
            scratch: BurstScratch::default(),
            expired_total: 0,
            middlebox: Acc::default(),
            loop_body: Acc::default(),
            drops: [0; 12],
        }
    }
}

impl TracedNat {
    /// Forget the spans and drop counts recorded so far (set-up's),
    /// keeping the expiry total the model checks.
    pub fn reset_spans(&mut self) {
        self.table.reset_spans();
        self.middlebox = Acc::default();
        self.loop_body = Acc::default();
        self.drops = [0; 12];
    }
}

impl Middlebox for TracedNat {
    fn name(&self) -> &'static str {
        "Verified NAT (traced)"
    }

    fn process(&mut self, _dir: Direction, _frame: &mut [u8], _now: Time) -> Verdict {
        unreachable!("BackendDriver only issues bursts")
    }

    fn occupancy(&self) -> usize {
        self.table.flow_count()
    }

    fn process_burst(
        &mut self,
        dir: Direction,
        pool: &mut Mempool,
        bufs: &[BufIdx],
        now: Time,
    ) -> Vec<Verdict> {
        let t_mb = Instant::now();
        let mut verdicts = Vec::with_capacity(bufs.len());
        for chunk in bufs.chunks(MAX_BURST) {
            let mut env = BurstEnv::new(&mut self.table, pool, chunk, dir, now, &mut self.scratch);
            let t_lb = Instant::now();
            let outcomes = nat_process_batch(&mut env, &self.cfg);
            self.loop_body.close(t_lb);
            self.expired_total += env.expired() as u64;
            env.finish();
            verdicts.extend(outcomes.into_iter().map(|o| match o {
                IterationOutcome::Forwarded(d) => Verdict::Forward(d),
                IterationOutcome::Dropped(r) => {
                    let i = DROP_REASONS
                        .iter()
                        .position(|(d, _)| *d == r)
                        .expect("every reason is listed");
                    self.drops[i] += 1;
                    Verdict::Drop
                }
                IterationOutcome::NoPacket => unreachable!("staged buffer not received"),
            }));
        }
        self.middlebox.close(t_mb);
        verdicts
    }
}
