//! # netsim — the evaluation substrate (DPDK + testbed analog)
//!
//! The paper evaluates on two Xeon machines with 10 GbE NICs: a Tester
//! running MoonGen fires 64-byte frames at a Middlebox running one of
//! four NFs over DPDK (§6, Fig. 11). None of that hardware exists here,
//! so this crate builds the closest pure-Rust equivalent (see DESIGN.md
//! §5 for the substitution argument):
//!
//! * [`dpdk`] — the runtime: a preallocated buffer [`dpdk::Mempool`]
//!   (DPDK's mbuf pool), fixed-capacity [`dpdk::Ring`]s, and the one
//!   simulated NIC port, [`dpdk::MultiQueueDevice`] (N RX/TX ring
//!   pairs with per-queue stats, fed through the RSS classifier; one
//!   queue is the classic single-ring port);
//! * [`eventloop`] — the async (epoll-style) driver: readiness
//!   [`eventloop::Poller`] over queue non-empty events, weighted
//!   round-robin budgets, idle backoff, and the
//!   [`eventloop::BackendDriver`] that runs the verified batch loop
//!   per queue event over any [`backend::PacketIo`] backend, plus the
//!   event-driven RFC 2544 measurement loops;
//! * [`frame_env`] — the bridge that runs the **verified loop body**
//!   (`vignat::nat_loop_iteration`) over real packet bytes: header
//!   fields in, incremental-checksum rewrites out;
//! * [`middlebox`] — the uniform NF interface the harness measures
//!   ([`middlebox::Middlebox`]), plus the VigNAT and no-op instances;
//! * [`tester`] — the MoonGen analog: background/probe flow workloads,
//!   deterministic and reproducible via seeds;
//! * [`harness`] — the RFC 2544 measurement methodology: the
//!   single-queue [`harness::Testbed`], per-packet latency sampling
//!   through the full mempool→ring→NF→ring path, and loss-bounded
//!   maximum-throughput search.
//!
//! * [`runtime`] — the persistent core-pinned shard runtime: one
//!   long-lived worker thread per shard (pinned via `sched_setaffinity`
//!   where permitted), fed by the RSS dispatcher through lock-free
//!   [`libvig::spsc`] rings, with results merged in deterministic shard
//!   order — the deployment-shaped parallel driver behind the scaling
//!   curve in `BENCH_throughput.json`;
//! * [`backend`] — the pluggable packet-I/O layer: the
//!   [`backend::PacketIo`] driver contract (classify into per-queue
//!   FIFOs, budgeted WRR drain, per-queue stats), with the simulated
//!   [`backend::SimBackend`] and, on Linux, two `AF_PACKET` transports
//!   feeding the same event loop with real kernel-delivered frames:
//!   the per-frame [`backend::os::OsBackend`] (`recvmmsg`-batched
//!   baseline) and the zero-copy [`backend::os::mmap::MmapBackend`]
//!   (`TPACKET_V3` RX block ring + `TPACKET_V2` TX ring shared with
//!   the kernel via `mmap`).
//!
//! What is real and what is modeled: the per-packet CPU work — parsing,
//! flow-table probes, expiry, rewrites, checksum updates, ring and
//! mempool traffic — is all real Rust running on the host CPU, and it is
//! what the experiments measure. Wire time, PCIe, and NIC DMA are *not*
//! modeled (except through `backend::os`, where the kernel's packet
//! path is real and trusted); benches that reproduce the paper's
//! absolute latency scale add a single documented constant for them.

// The only `unsafe` in the workspace is the libc FFI in
// `backend::os::sys` (raw-socket calls, the two CPU-affinity calls,
// and the packet-ring setup/`mmap` surface for the zero-copy backend,
// each safely wrapped on the spot; shared ring memory is reachable
// only through bounds-checked volatile accessors); the rest of the
// crate stays unsafe-free and the lint keeps it that way.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod dpdk;
pub mod eventloop;
pub mod frame_env;
pub mod harness;
pub mod middlebox;
pub mod runtime;
pub mod tester;

pub use backend::{
    CorruptKind, FaultIo, FaultPlan, FaultStats, PacketIo, SimBackend, TesterIo, TruncateKind,
};
pub use dpdk::{Mempool, MultiQueueDevice, PortStats, Ring};
pub use eventloop::{BackendDriver, EventLoop, Poller, TxRecord, Wrr};
pub use frame_env::{BurstEnv, FrameEnv, RssClassifier};
pub use middlebox::{Middlebox, NoopForwarder, SystemClockMb, Verdict, VigNatMb};
pub use runtime::{
    with_shard_runtime, PinReport, RuntimeReport, ShardRuntimeSession, SupervisorStats, WorkerDown,
};
pub use tester::{FlowGen, WorkloadMix};
