//! Named scenario factories: workloads declared as data.

use crate::error::{CoreError, Result};
use crate::metrics::MetricReport;
use crate::runtime::runner::{Runner, Scenario};
use crate::runtime::summary::MetricSummary;
use std::collections::BTreeMap;

/// Outputs that expose the paper's three evaluation metrics.
pub trait AsMetricReport {
    /// The metric report of this run.
    fn metric_report(&self) -> MetricReport;
}

impl AsMetricReport for MetricReport {
    fn metric_report(&self) -> MetricReport {
        *self
    }
}

/// Object-safe face of a [`Scenario`] whose output carries metrics — the
/// common currency of the [`ScenarioRegistry`].
///
/// Blanket-implemented for every `Scenario` with an [`AsMetricReport`]
/// output, so scenario types only implement [`Scenario`].
pub trait MetricScenario: Send + Sync {
    /// A short human-readable label.
    fn label(&self) -> String;

    /// Executes one run and returns its metric report.
    ///
    /// # Errors
    ///
    /// Propagates the underlying scenario failure.
    fn run_metrics(&self, seed: u64) -> Result<MetricReport>;
}

impl<S> MetricScenario for S
where
    S: Scenario + Send,
    S::Output: AsMetricReport,
{
    fn label(&self) -> String {
        Scenario::label(self)
    }

    fn run_metrics(&self, seed: u64) -> Result<MetricReport> {
        self.run(seed).map(|output| output.metric_report())
    }
}

/// The result of running one registered scenario over a seed grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// The scenario's label.
    pub label: String,
    /// One report per seed, in seed order.
    pub reports: Vec<MetricReport>,
    /// The cross-seed aggregate.
    pub summary: MetricSummary,
}

type ScenarioFactory = Box<dyn Fn() -> Result<Box<dyn MetricScenario>> + Send + Sync>;

struct Entry {
    factory: ScenarioFactory,
    /// Whether `(name, seed)` fully determines the output. Wall-clock
    /// scenarios (e.g. the live threaded service) are registered as
    /// non-deterministic and excluded from byte-identical-replay suites.
    deterministic: bool,
}

/// A registry of named scenario factories.
///
/// New workloads — different attacker profiles, IDS models, `Δ_R`
/// schedules, node-churn patterns — are registered as data (a name plus a
/// factory) instead of new run loops; any registered scenario can then be
/// executed over any seed grid through the shared [`Runner`].
#[derive(Default)]
pub struct ScenarioRegistry {
    factories: BTreeMap<String, Entry>,
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ScenarioRegistry::default()
    }

    /// Registers (or replaces) a deterministic scenario factory under
    /// `name` (`(name, seed)` fully determines the output).
    pub fn register<F>(&mut self, name: impl Into<String>, factory: F)
    where
        F: Fn() -> Result<Box<dyn MetricScenario>> + Send + Sync + 'static,
    {
        self.factories.insert(
            name.into(),
            Entry {
                factory: Box::new(factory),
                deterministic: true,
            },
        );
    }

    /// Registers (or replaces) a **wall-clock** scenario factory: one whose
    /// output depends on real time and thread scheduling (e.g. the live
    /// threaded service), so replay suites must not expect byte-identical
    /// reruns.
    pub(crate) fn register_wall_clock<F>(&mut self, name: impl Into<String>, factory: F)
    where
        F: Fn() -> Result<Box<dyn MetricScenario>> + Send + Sync + 'static,
    {
        self.factories.insert(
            name.into(),
            Entry {
                factory: Box::new(factory),
                deterministic: false,
            },
        );
    }

    /// The registered names of deterministic scenarios, sorted (the set
    /// replay suites iterate).
    pub fn deterministic_names(&self) -> Vec<&str> {
        self.factories
            .iter()
            .filter(|(_, entry)| entry.deterministic)
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// Instantiates the scenario registered under `name`.
    ///
    /// # Errors
    ///
    /// Fails for unknown names, and propagates factory failures.
    fn build(&self, name: &str) -> Result<Box<dyn MetricScenario>> {
        match self.factories.get(name) {
            Some(entry) => (entry.factory)(),
            None => Err(CoreError::UnknownScenario(name.to_string())),
        }
    }

    /// Builds the scenario registered under `name` and executes it over the
    /// seed grid through `runner`.
    ///
    /// # Errors
    ///
    /// Fails for unknown names, empty seed grids, and propagates run
    /// failures.
    pub fn run(&self, name: &str, runner: &Runner, seeds: &[u64]) -> Result<ScenarioRun> {
        let scenario = self.build(name)?;
        let reports = runner.run_metric_seeds(scenario.as_ref(), seeds)?;
        let summary = MetricSummary::from_reports(&reports)?;
        Ok(ScenarioRun {
            label: scenario.label(),
            reports,
            summary,
        })
    }
}

impl Runner {
    /// Runs an object-safe [`MetricScenario`] for every seed (the dynamic
    /// counterpart of [`Runner::run_seeds`]).
    ///
    /// # Errors
    ///
    /// Returns the first (in seed order) error produced by the scenario.
    fn run_metric_seeds(
        &self,
        scenario: &dyn MetricScenario,
        seeds: &[u64],
    ) -> Result<Vec<MetricReport>> {
        let adapter = crate::runtime::runner::FnScenario::new(scenario.label(), |seed| {
            scenario.run_metrics(seed)
        });
        self.run_seeds(&adapter, seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::runner::FnScenario;

    fn synthetic(name: &'static str, base: f64) -> impl Fn() -> Result<Box<dyn MetricScenario>> {
        move || {
            Ok(Box::new(FnScenario::new(name, move |seed| {
                Ok(MetricReport {
                    availability: base + seed as f64 / 1000.0,
                    time_to_recovery: 10.0,
                    recovery_frequency: 0.1,
                    steps: 100,
                })
            })) as Box<dyn MetricScenario>)
        }
    }

    #[test]
    fn registry_builds_and_runs_by_name() {
        let mut registry = ScenarioRegistry::new();
        registry.register("good", synthetic("good", 0.9));
        registry.register("bad", synthetic("bad", 0.1));
        assert_eq!(registry.len(), 2);
        assert!(registry.contains("good"));
        assert!(!registry.contains("missing"));

        let run = registry
            .run("good", &Runner::parallel(), &[0, 1, 2, 3])
            .unwrap();
        assert_eq!(run.label, "good");
        assert_eq!(run.reports.len(), 4);
        assert_eq!(run.summary.samples, 4);
        assert!((run.summary.availability.0 - 0.9015).abs() < 1e-9);
    }

    #[test]
    fn unknown_names_error() {
        let registry = ScenarioRegistry::new();
        let error = match registry.build("nope") {
            Ok(_) => panic!("unknown scenario must not build"),
            Err(error) => error,
        };
        assert_eq!(error, CoreError::UnknownScenario("nope".into()));
        assert!(error.to_string().contains("nope"));
    }

    #[test]
    fn dynamic_and_static_runs_agree() {
        let mut registry = ScenarioRegistry::new();
        registry.register("s", synthetic("s", 0.5));
        let seeds: Vec<u64> = (0..16).collect();
        let dynamic = registry.run("s", &Runner::parallel(), &seeds).unwrap();
        let serial = registry.run("s", &Runner::serial(), &seeds).unwrap();
        assert_eq!(dynamic.reports, serial.reports);
        assert_eq!(dynamic.summary, serial.summary);
    }
}
