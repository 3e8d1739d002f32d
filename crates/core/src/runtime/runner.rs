//! The [`Scenario`] abstraction and the parallel [`Runner`].

use crate::error::Result;
use crate::runtime::pool::WorkerPool;

/// One closed-loop experiment: everything needed to execute a run for a
/// given seed.
///
/// Implementations must be deterministic in the seed — `run(seed)` called
/// twice must produce the same output — which is what lets the [`Runner`]
/// guarantee that serial and parallel executions of the same grid are
/// byte-identical.
pub trait Scenario: Sync {
    /// The outcome of one run.
    type Output: Send;

    /// A short human-readable label used in reports and error messages.
    fn label(&self) -> String;

    /// Executes one run.
    ///
    /// # Errors
    ///
    /// Propagates construction or model failures of the underlying system.
    fn run(&self, seed: u64) -> Result<Self::Output>;
}

/// Adapts a closure into a [`Scenario`], so ad-hoc experiments (e.g. the
/// per-figure seed sweeps of the bench harness) can use the [`Runner`]
/// without defining a type.
pub struct FnScenario<F> {
    label: String,
    run: F,
}

impl<F> FnScenario<F> {
    /// Wraps `run` under the given label.
    pub fn new<O>(label: impl Into<String>, run: F) -> Self
    where
        F: Fn(u64) -> Result<O> + Sync,
        O: Send,
    {
        FnScenario {
            label: label.into(),
            run,
        }
    }
}

impl<F, O> Scenario for FnScenario<F>
where
    F: Fn(u64) -> Result<O> + Sync,
    O: Send,
{
    type Output = O;

    fn label(&self) -> String {
        self.label.clone()
    }

    fn run(&self, seed: u64) -> Result<O> {
        (self.run)(seed)
    }
}

/// How a [`Runner`] schedules its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One job after the other on the calling thread.
    Serial,
    /// Jobs distributed over `threads` worker threads (`None` = one per
    /// available CPU).
    Parallel {
        /// Worker-thread count; `None` picks the available parallelism.
        threads: Option<usize>,
    },
}

/// Executes scenarios over seed/parameter grids.
///
/// The runner hands each (scenario, seed) pair to a worker as an independent
/// job and collects outputs **in input order**, so the execution mode never
/// changes the result — only the wall-clock time. This is what makes the
/// full Table-7 grid embarrassingly parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    mode: ExecutionMode,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::parallel()
    }
}

impl Runner {
    /// A runner executing jobs serially on the calling thread.
    pub fn serial() -> Self {
        Runner {
            mode: ExecutionMode::Serial,
        }
    }

    /// A runner using one worker per available CPU.
    pub fn parallel() -> Self {
        Runner {
            mode: ExecutionMode::Parallel { threads: None },
        }
    }

    /// A runner using exactly `threads` workers (`0` behaves like `1`).
    pub fn with_threads(threads: usize) -> Self {
        Runner {
            mode: ExecutionMode::Parallel {
                threads: Some(threads),
            },
        }
    }

    /// The configured execution mode.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// The number of worker threads this runner will use for `jobs` jobs.
    pub fn effective_threads(&self, jobs: usize) -> usize {
        let workers = match self.mode {
            ExecutionMode::Serial => 1,
            ExecutionMode::Parallel { threads: Some(n) } => n.max(1),
            ExecutionMode::Parallel { threads: None } => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        };
        workers.min(jobs).max(1)
    }

    /// Runs one scenario for every seed and returns the outputs in seed
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the first (in seed order) error produced by the scenario.
    pub fn run_seeds<S: Scenario>(&self, scenario: &S, seeds: &[u64]) -> Result<Vec<S::Output>> {
        self.execute(seeds.len(), |job| scenario.run(seeds[job]))
            .into_iter()
            .collect()
    }

    /// Runs every scenario (grid cell) for every seed, pooling all
    /// (cell, seed) pairs into one parallel job queue, and returns one
    /// output vector per cell (seed order within the cell).
    ///
    /// # Errors
    ///
    /// Returns the first (in grid order) error produced by any cell.
    pub fn run_cells<S: Scenario>(
        &self,
        cells: &[S],
        seeds: &[u64],
    ) -> Result<Vec<Vec<S::Output>>> {
        if seeds.is_empty() {
            return Ok(cells.iter().map(|_| Vec::new()).collect());
        }
        let per_cell = seeds.len();
        let outputs = self.execute(cells.len() * per_cell, |job| {
            cells[job / per_cell].run(seeds[job % per_cell])
        });
        let mut grouped: Vec<Vec<S::Output>> = Vec::with_capacity(cells.len());
        let mut current = Vec::with_capacity(per_cell);
        for output in outputs {
            current.push(output?);
            if current.len() == per_cell {
                grouped.push(std::mem::replace(
                    &mut current,
                    Vec::with_capacity(per_cell),
                ));
            }
        }
        Ok(grouped)
    }

    /// Executes `jobs` independent jobs and returns their results in job
    /// order. The scheduling (serial, or claimed across the persistent
    /// [`WorkerPool`]) is invisible in the result.
    fn execute<T, F>(&self, jobs: usize, job_fn: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.effective_threads(jobs);
        if workers <= 1 || jobs <= 1 {
            return (0..jobs).map(job_fn).collect();
        }
        WorkerPool::global().run_indexed(jobs, workers, job_fn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;

    fn squares() -> FnScenario<impl Fn(u64) -> Result<u64> + Sync> {
        FnScenario::new("squares", |seed| Ok(seed * seed))
    }

    #[test]
    fn outputs_preserve_seed_order() {
        let seeds: Vec<u64> = (0..100).collect();
        let outputs = Runner::parallel().run_seeds(&squares(), &seeds).unwrap();
        assert_eq!(outputs, seeds.iter().map(|s| s * s).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let seeds: Vec<u64> = (0..37).collect();
        let serial = Runner::serial().run_seeds(&squares(), &seeds).unwrap();
        for workers in [1, 2, 3, 8, 64] {
            let parallel = Runner::with_threads(workers)
                .run_seeds(&squares(), &seeds)
                .unwrap();
            assert_eq!(serial, parallel, "{workers} workers");
        }
    }

    #[test]
    fn cells_group_outputs_per_scenario() {
        let cells: Vec<_> = (0..4u64)
            .map(|offset| {
                FnScenario::new(
                    format!("cell-{offset}"),
                    move |seed| Ok(offset * 100 + seed),
                )
            })
            .collect();
        let grouped = Runner::parallel().run_cells(&cells, &[1, 2, 3]).unwrap();
        assert_eq!(grouped.len(), 4);
        assert_eq!(grouped[0], vec![1, 2, 3]);
        assert_eq!(grouped[1], vec![101, 102, 103]);
        assert_eq!(grouped[3], vec![301, 302, 303]);
    }

    #[test]
    fn first_error_in_seed_order_wins() {
        let scenario = FnScenario::new("failing", |seed| {
            if seed >= 5 {
                Err(CoreError::Solver(format!("seed {seed}")))
            } else {
                Ok(seed)
            }
        });
        let seeds: Vec<u64> = (0..20).collect();
        let error = Runner::parallel().run_seeds(&scenario, &seeds).unwrap_err();
        assert_eq!(error, CoreError::Solver("seed 5".into()));
    }

    #[test]
    fn empty_grids_are_fine() {
        let outputs = Runner::parallel().run_seeds(&squares(), &[]).unwrap();
        assert!(outputs.is_empty());
        let cells = vec![squares(), squares()];
        let grouped = Runner::parallel().run_cells(&cells, &[]).unwrap();
        assert_eq!(grouped, vec![Vec::<u64>::new(), Vec::new()]);
    }

    #[test]
    fn effective_threads_never_exceeds_jobs() {
        assert_eq!(Runner::with_threads(16).effective_threads(3), 3);
        assert_eq!(Runner::with_threads(0).effective_threads(10), 1);
        assert_eq!(Runner::serial().effective_threads(10), 1);
        assert!(Runner::parallel().effective_threads(1000) >= 1);
    }

    #[test]
    fn labels_flow_through_fn_scenarios() {
        assert_eq!(squares().label(), "squares");
    }
}
