//! # kmachine — a simulator for the *k-machine model* of distributed computing
//!
//! The k-machine model (Klauck, Nanongkai, Pandurangan, Robinson; SODA 2015)
//! consists of `k ≥ 2` machines pairwise interconnected by bidirectional
//! point-to-point links. Computation proceeds in **synchronous rounds**: in
//! each round every machine may perform arbitrary local computation and send
//! at most `B` bits over each of its `k − 1` links. Local computation is free
//! in the model; the costs that matter are **rounds** and **messages**.
//!
//! This crate provides:
//!
//! * a [`Protocol`] trait — distributed algorithms are written once as
//!   per-machine state machines driven round by round;
//! * [`engine::run_sync`] — a deterministic lockstep simulator with exact
//!   round/message/bit accounting that pays [`NetConfig::round_latency`]
//!   per round and scales to thousands of simulated machines;
//! * bandwidth-limited links ([`BandwidthMode::Enforce`]): each ordered link
//!   drains at most `B` bits per round, store-and-forward, so protocols that
//!   ship a lot of data genuinely pay for it in rounds;
//! * protocol multiplexing ([`mux::MuxProtocol`]): m instances of any
//!   protocol pipelined over one run, sharing link FIFOs and bandwidth, with
//!   per-instance message/bit attribution
//!   ([`RunMetrics::per_tag`](metrics::RunMetrics::per_tag));
//! * leader election protocols ([`leader`]);
//! * deterministic fault injection ([`FaultPlan`]): seeded per-link message
//!   loss with bounded retransmission ([`EngineError::LinkDown`] once the
//!   retry budget is exhausted), fail-stop crashes with a salvage hook
//!   ([`Protocol::on_crash`], observed by peers via [`Ctx::crashed`]) — the
//!   realized faults are a pure function of the plan and reported in
//!   [`RunOutcome::faults`];
//! * deterministic Byzantine injection ([`AdversaryPlan`]): machines that
//!   lie from a scheduled round on ([`Payload::tamper`] perturbs their
//!   outgoing values with pure seeded words, equivocators telling each peer
//!   a *different* lie) and links that corrupt payload bits in flight —
//!   caught at delivery by chained per-link integrity digests
//!   ([`EngineError::IntegrityViolation`]); verification counts ride
//!   [`RunOutcome::audit`]. Semantic detection
//!   of lies (and quarantine of liars) is the query layer's job, built on
//!   the same seeded determinism;
//! * deterministic crash-recovery plans ([`config::RecoveryPlan`]): a
//!   machine that crashes and later rejoins is, until it has rejoined, a
//!   fail-stop crash ([`config::RecoveryPlan::crashes`]); the query layer
//!   heals it by re-running the query with the machine back, so the engine
//!   never reads the plan;
//! * reproducible per-machine randomness derived from a single master seed.
//!
//! ## Example
//!
//! ```
//! use kmachine::{NetConfig, Protocol, Ctx, Step, Payload, engine::run_sync};
//!
//! /// Every machine sends its value to machine 0, which sums them.
//! struct SumToZero { value: u64, acc: u64, got: usize }
//!
//! #[derive(Clone, Debug)]
//! struct Val(u64);
//! impl Payload for Val {
//!     fn size_bits(&self) -> u64 { 64 }
//! }
//!
//! impl Protocol for SumToZero {
//!     type Msg = Val;
//!     type Output = u64;
//!     fn on_round(&mut self, ctx: &mut Ctx<'_, Val>) -> Step<u64> {
//!         if ctx.id() != 0 {
//!             if ctx.round() == 0 {
//!                 ctx.send(0, Val(self.value));
//!             }
//!             return Step::Done(0);
//!         }
//!         for env in ctx.inbox() {
//!             self.acc += env.msg.0;
//!             self.got += 1;
//!         }
//!         if self.got == ctx.k() - 1 {
//!             Step::Done(self.acc + self.value)
//!         } else {
//!             Step::Continue
//!         }
//!     }
//! }
//!
//! let cfg = NetConfig::new(4);
//! let protos = (0..4).map(|i| SumToZero { value: i as u64, acc: 0, got: 0 }).collect();
//! let out = run_sync(&cfg, protos).unwrap();
//! assert_eq!(out.outputs[0], 0 + 1 + 2 + 3);
//! assert_eq!(out.metrics.rounds, 1); // one communication round
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod ctx;
pub mod engine;
pub mod error;
mod frozen;
pub mod leader;
pub mod link;
pub mod message;
pub mod metrics;
pub mod mux;
pub mod payload;
pub mod protocol;
pub mod rng;

pub use config::{AdversaryPlan, BandwidthMode, FaultPlan, NetConfig, RecoveryPlan};
pub use ctx::Ctx;
pub use engine::{run_sync, RunOutcome};
pub use error::EngineError;
pub use frozen::{DeliveryMode, Engine, SkewMetrics, DELIVERY_ENV, ENGINE_ENV};
pub use link::{IntegrityConfig, LinkFifo, LossConfig};
pub use message::{Envelope, MachineId, ENVELOPE_HEADER_BITS};
pub use metrics::{AuditMetrics, FaultMetrics, RecoveryMetrics, RunMetrics, TagMetrics};
pub use mux::{MuxOutput, MuxProtocol, Tagged, MUX_TAG_BITS};
pub use payload::Payload;
pub use protocol::{Protocol, Step};
