//! The unified scenario runtime shared by the core, emulation and bench
//! layers.
//!
//! The paper's evaluation (Table 7, Figs. 4–18) is a grid of closed-loop
//! runs — strategy × `N_1` × `Δ_R` × seeds — and before this module existed
//! the run loop was re-implemented in three places (the emulation, the
//! comparison harness and each figure of the experiment binary), always
//! sequentially. The runtime factors that shape out once:
//!
//! * [`Scenario`] — anything that can execute one closed-loop run for a
//!   seed and produce an output ([`FnScenario`] adapts a plain closure).
//! * [`Runner`] — executes a scenario over a seed grid, or a whole slice of
//!   scenarios over a seed grid ([`Runner::run_cells`]), either serially or
//!   across worker threads. Results are returned in input order, so a
//!   parallel run is byte-identical to a serial one.
//! * `WorkerPool` — the persistent process-wide thread pool behind every
//!   parallel path (the `Runner` batches *and* the fleet simulation
//!   engine's per-shard phases), so repeated sweeps stop paying per-batch
//!   thread-spawn cost.
//! * [`MetricSummary`] — the mean / 95%-CI aggregation of
//!   [`MetricReport`](crate::metrics::MetricReport)s that every table of the
//!   paper repeats.
//! * [`StrategyKind`] / [`NodeStrategy`] — the per-node decision maker
//!   (TOLERANCE controller or baseline) a control plane holds for each
//!   node, and its one factory.
//!
//! There is one way to run a scenario: build it as a value —
//! `EmulationScenario`, [`ShardedSimnetScenario`](crate::simnet::ShardedSimnetScenario),
//! `AttackerCampaignScenario` or an [`FnScenario`] — and hand it to
//! [`Runner::run_seeds`] (one scenario) or [`Runner::run_cells`] (a slice
//! of them). Each scenario keeps its own output type; nothing looks a
//! scenario up by name, and nothing converts outputs into a common
//! currency.

mod pool;
mod runner;
mod strategy;
mod summary;

pub(crate) use pool::WorkerPool;
pub use runner::{ExecutionMode, FnScenario, Runner, Scenario};
pub use strategy::{NodeStrategy, StrategyKind};
pub use summary::MetricSummary;
