//! IDS alert generation, intrusion traces and infrastructure metrics.
//!
//! The paper estimates the observation distribution `Ẑ_i` of each container
//! from 25 000 Snort alert samples (Fig. 11) and publishes a dataset of 6 400
//! intrusion traces. Neither the testbed nor the dataset is available
//! offline, so this module generates the synthetic equivalent: per-container
//! alert-count distributions whose shape mirrors Fig. 11 (a low-rate healthy
//! distribution and a heavy-tailed distribution under intrusion whose
//! separation depends on the container's detectability), a trace generator,
//! and the additional infrastructure metrics whose KL divergences Appendix H
//! compares (Fig. 18).

use crate::containers::{ContainerCatalog, ContainerConfig};
use rand::Rng;
use serde::{Deserialize, Serialize};
use tolerance_core::node_model::NodeState;
use tolerance_core::observation::ObservationModel;
use tolerance_markov::dist::{BetaBinomial, DiscreteDistribution};
use tolerance_markov::stats::kl_divergence;

/// Size of the weighted-alert observation space `O` used by the controllers
/// (the paper's numeric experiments use `O = {0, ..., 9}`; one extra bucket
/// captures the tail).
const ALERT_SUPPORT: usize = 11;

/// An infrastructure metric collected by the emulated testbed (Appendix H /
/// Fig. 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetricKind {
    /// IDS alerts weighted by priority (the metric TOLERANCE uses).
    AlertsWeightedByPriority,
    /// Newly failed login attempts.
    FailedLoginAttempts,
    /// Newly created processes.
    NewProcesses,
    /// New TCP connections.
    NewTcpConnections,
    /// Blocks written to disk.
    BlocksWritten,
    /// Blocks read from disk.
    BlocksRead,
}

impl MetricKind {
    /// All metrics, in the order of Fig. 18.
    pub fn all() -> [MetricKind; 6] {
        [
            MetricKind::AlertsWeightedByPriority,
            MetricKind::FailedLoginAttempts,
            MetricKind::NewProcesses,
            MetricKind::NewTcpConnections,
            MetricKind::BlocksWritten,
            MetricKind::BlocksRead,
        ]
    }

    /// Display name used in the experiment output.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::AlertsWeightedByPriority => "alerts-weighted-by-priority",
            MetricKind::FailedLoginAttempts => "failed-login-attempts",
            MetricKind::NewProcesses => "new-processes",
            MetricKind::NewTcpConnections => "new-tcp-connections",
            MetricKind::BlocksWritten => "blocks-written",
            MetricKind::BlocksRead => "blocks-read",
        }
    }

    /// How strongly an intrusion shifts this metric (relative to its healthy
    /// variability). The ordering reproduces Fig. 18's finding that the
    /// weighted alert count carries by far the most information, followed by
    /// disk writes and failed logins, while disk reads carry almost none.
    fn intrusion_shift(self) -> f64 {
        match self {
            MetricKind::AlertsWeightedByPriority => 2.5,
            MetricKind::BlocksWritten => 1.0,
            MetricKind::FailedLoginAttempts => 0.8,
            MetricKind::NewProcesses => 0.3,
            MetricKind::NewTcpConnections => 0.3,
            MetricKind::BlocksRead => 0.05,
        }
    }
}

/// The per-container IDS model: weighted-alert distributions under the
/// healthy and compromised states, shaped by the container's detectability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdsModel {
    container_id: u8,
    observation_model: ObservationModel,
}

impl IdsModel {
    /// Builds the IDS model of a container. More detectable intrusions
    /// (brute-force playbooks) shift the compromised distribution further
    /// from the healthy one, mirroring the per-container differences of
    /// Fig. 11.
    pub fn for_container(container: &ContainerConfig) -> Self {
        // Healthy alerts: BetaBin(10, 0.7, 3) as in Appendix E.
        let healthy = BetaBinomial::new(10, 0.7, 3.0)
            .expect("valid parameters")
            .pmf_vector();
        // Compromised alerts: BetaBin(10, alpha, 0.7) with alpha scaled by
        // detectability — louder intrusions push mass towards high counts.
        let alpha = (1.0 * container.detectability).clamp(0.4, 4.0);
        let compromised = BetaBinomial::new(10, alpha, 0.7)
            .expect("valid parameters")
            .pmf_vector();
        let observation_model = ObservationModel::from_distributions(healthy, compromised)
            .expect("beta-binomial vectors are valid distributions");
        IdsModel {
            container_id: container.id,
            observation_model,
        }
    }

    /// One model per catalogue entry, in catalogue order, each checked
    /// against the Theorem 1 observation assumptions (D–E) once, so a run
    /// that rebuilds nodes by the hundred thousand neither recomputes nor
    /// re-validates a constant.
    ///
    /// # Errors
    ///
    /// Returns [`tolerance_core::CoreError::InvalidParameter`] if a
    /// container's observation model violates the assumptions.
    pub(crate) fn for_catalog(catalog: &ContainerCatalog) -> tolerance_core::Result<Vec<Self>> {
        catalog
            .containers()
            .iter()
            .map(|container| {
                let ids = IdsModel::for_container(container);
                ids.observation_model.validate_theorem1()?;
                Ok(ids)
            })
            .collect()
    }

    /// The observation model consumed by the node controller.
    pub fn observation_model(&self) -> &ObservationModel {
        &self.observation_model
    }

    /// Samples a weighted alert count for a replica in the given state, with
    /// an optional additive intensity from an ongoing (not yet completed)
    /// intrusion step.
    pub fn sample_alerts<R: Rng + ?Sized>(
        &self,
        state: NodeState,
        step_intensity: f64,
        rng: &mut R,
    ) -> u64 {
        let base = self.observation_model.sample(state, rng);
        if step_intensity <= 0.0 {
            return base;
        }
        // Reconnaissance/brute-force steps add bursty extra alerts.
        let extra = (step_intensity * 3.0 * rng.random::<f64>()).round() as u64;
        (base + extra).min((ALERT_SUPPORT - 1) as u64)
    }

    /// Estimates the empirical distribution `Ẑ_i` from `samples_per_state`
    /// samples per state (the Fig. 11 estimation procedure; the paper uses
    /// 25 000).
    pub fn estimate_empirical<R: Rng + ?Sized>(
        &self,
        samples_per_state: usize,
        rng: &mut R,
    ) -> ObservationModel {
        let healthy: Vec<u64> = (0..samples_per_state)
            .map(|_| self.observation_model.sample(NodeState::Healthy, rng))
            .collect();
        let compromised: Vec<u64> = (0..samples_per_state)
            .map(|_| self.observation_model.sample(NodeState::Compromised, rng))
            .collect();
        ObservationModel::from_samples(&healthy, &compromised, ALERT_SUPPORT, 1.0)
            .expect("non-empty sample sets")
    }
}

/// One synthetic intrusion trace: per-step state, weighted alert count and
/// the full metric vector (the analogue of one trace in the paper's 6 400-
/// trace dataset).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct IntrusionTrace {
    /// The container the trace was generated for.
    pub container_id: u8,
    /// The time-step at which the intrusion begins.
    pub intrusion_start: u32,
    /// Per-step hidden state (true = compromised).
    pub compromised: Vec<bool>,
    /// Per-step weighted alert counts.
    pub alerts: Vec<u64>,
    /// Per-step values of every infrastructure metric (same order as
    /// [`MetricKind::all`]).
    pub metrics: Vec<[u64; 6]>,
}

/// A generated dataset of intrusion traces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDataset {
    traces: Vec<IntrusionTrace>,
}

impl TraceDataset {
    /// Generates `count` traces of length `horizon` for the given container,
    /// with intrusion start times uniform over the first half of the trace.
    pub fn generate<R: Rng + ?Sized>(
        container: &ContainerConfig,
        count: usize,
        horizon: u32,
        rng: &mut R,
    ) -> Self {
        let ids = IdsModel::for_container(container);
        let traces = (0..count)
            .map(|_| {
                let intrusion_start = rng.random_range(1..(horizon / 2).max(2));
                let mut compromised = Vec::with_capacity(horizon as usize);
                let mut alerts = Vec::with_capacity(horizon as usize);
                let mut metrics = Vec::with_capacity(horizon as usize);
                for t in 0..horizon {
                    let is_compromised = t >= intrusion_start;
                    let state = if is_compromised {
                        NodeState::Compromised
                    } else {
                        NodeState::Healthy
                    };
                    compromised.push(is_compromised);
                    alerts.push(ids.sample_alerts(state, 0.0, rng));
                    metrics.push(sample_metric_vector(is_compromised, rng));
                }
                IntrusionTrace {
                    container_id: container.id,
                    intrusion_start,
                    compromised,
                    alerts,
                    metrics,
                }
            })
            .collect();
        TraceDataset { traces }
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// The empirical KL divergence `D_KL(metric | healthy ‖ metric |
    /// compromised)` of each metric across the dataset (the Fig. 18
    /// computation).
    pub fn metric_divergences(&self) -> Vec<(MetricKind, f64)> {
        MetricKind::all()
            .into_iter()
            .enumerate()
            .map(|(metric_index, kind)| {
                let mut healthy = vec![1.0; METRIC_SUPPORT];
                let mut compromised = vec![1.0; METRIC_SUPPORT];
                for trace in &self.traces {
                    for (t, values) in trace.metrics.iter().enumerate() {
                        let bucket = (values[metric_index] as usize).min(METRIC_SUPPORT - 1);
                        if trace.compromised[t] {
                            compromised[bucket] += 1.0;
                        } else {
                            healthy[bucket] += 1.0;
                        }
                    }
                }
                let healthy_sum: f64 = healthy.iter().sum();
                let compromised_sum: f64 = compromised.iter().sum();
                let healthy: Vec<f64> = healthy.iter().map(|c| c / healthy_sum).collect();
                let compromised: Vec<f64> =
                    compromised.iter().map(|c| c / compromised_sum).collect();
                let divergence = kl_divergence(&healthy, &compromised).unwrap_or(f64::INFINITY);
                (kind, divergence)
            })
            .collect()
    }
}

/// Support size of the binned infrastructure metrics.
const METRIC_SUPPORT: usize = 30;

/// Samples one value of every infrastructure metric for a step.
fn sample_metric_vector<R: Rng + ?Sized>(compromised: bool, rng: &mut R) -> [u64; 6] {
    let mut out = [0u64; 6];
    for (i, kind) in MetricKind::all().into_iter().enumerate() {
        // Healthy behaviour: a small Poisson-like count; intrusions shift the
        // mean by the metric-specific amount.
        let base_mean = 3.0;
        let mean = if compromised {
            base_mean * (1.0 + kind.intrusion_shift())
        } else {
            base_mean
        };
        let poisson = tolerance_markov::dist::Poisson::new(mean).expect("positive mean");
        out[i] = poisson.sample(rng).min((METRIC_SUPPORT - 1) as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containers::ContainerCatalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ids_models_separate_states_more_for_detectable_containers() {
        let catalogue = ContainerCatalog::paper_catalog();
        let brute = IdsModel::for_container(catalogue.by_id(1).unwrap());
        let stealthy = IdsModel::for_container(catalogue.by_id(6).unwrap());
        let loud_divergence = brute.observation_model().detection_divergence().unwrap();
        let quiet_divergence = stealthy.observation_model().detection_divergence().unwrap();
        assert!(
            loud_divergence > quiet_divergence,
            "brute-force containers must be easier to detect ({loud_divergence} vs {quiet_divergence})"
        );
        assert_eq!(brute.container_id, 1);
    }

    #[test]
    fn all_container_models_satisfy_theorem1_assumptions() {
        let catalogue = ContainerCatalog::paper_catalog();
        for container in catalogue.containers() {
            let ids = IdsModel::for_container(container);
            assert!(
                ids.observation_model().validate_theorem1().is_ok(),
                "container {} violates the observation assumptions",
                container.id
            );
        }
    }

    #[test]
    fn empirical_estimation_converges_to_the_model() {
        let catalogue = ContainerCatalog::paper_catalog();
        let ids = IdsModel::for_container(catalogue.by_id(2).unwrap());
        let mut rng = StdRng::seed_from_u64(3);
        let empirical = ids.estimate_empirical(25_000, &mut rng);
        for o in 0..10u64 {
            let err = (empirical.probability(NodeState::Compromised, o)
                - ids
                    .observation_model()
                    .probability(NodeState::Compromised, o))
            .abs();
            assert!(err < 0.02, "empirical estimate off by {err} at o = {o}");
        }
    }

    #[test]
    fn alert_sampling_respects_support_and_step_intensity() {
        let catalogue = ContainerCatalog::paper_catalog();
        let ids = IdsModel::for_container(catalogue.by_id(1).unwrap());
        let mut rng = StdRng::seed_from_u64(4);
        let mut base_total = 0u64;
        let mut burst_total = 0u64;
        for _ in 0..2000 {
            let base = ids.sample_alerts(NodeState::Healthy, 0.0, &mut rng);
            let burst = ids.sample_alerts(NodeState::Healthy, 1.5, &mut rng);
            assert!(base < ALERT_SUPPORT as u64);
            assert!(burst < ALERT_SUPPORT as u64);
            base_total += base;
            burst_total += burst;
        }
        assert!(
            burst_total > base_total,
            "active intrusion steps must add alert noise"
        );
    }

    #[test]
    fn trace_dataset_structure_and_intrusion_labels() {
        let catalogue = ContainerCatalog::paper_catalog();
        let mut rng = StdRng::seed_from_u64(5);
        let dataset = TraceDataset::generate(catalogue.by_id(5).unwrap(), 64, 40, &mut rng);
        assert_eq!(dataset.len(), 64);
        assert!(!dataset.is_empty());
        for trace in &dataset.traces {
            assert_eq!(trace.compromised.len(), 40);
            assert_eq!(trace.alerts.len(), 40);
            assert_eq!(trace.metrics.len(), 40);
            // The label flips exactly once, at the intrusion start.
            assert!(!trace.compromised[0]);
            assert!(trace.compromised[trace.intrusion_start as usize]);
            assert!(trace.compromised.last().copied().unwrap());
        }
    }

    #[test]
    fn fig18_ordering_alerts_carry_the_most_information() {
        let catalogue = ContainerCatalog::paper_catalog();
        let mut rng = StdRng::seed_from_u64(6);
        let dataset = TraceDataset::generate(catalogue.by_id(1).unwrap(), 200, 60, &mut rng);
        let divergences = dataset.metric_divergences();
        assert_eq!(divergences.len(), 6);
        let get = |kind: MetricKind| {
            divergences
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, d)| *d)
                .unwrap()
        };
        let alerts = get(MetricKind::AlertsWeightedByPriority);
        // The weighted-alert metric dominates every other metric, and disk
        // reads are nearly uninformative (Fig. 18).
        for kind in MetricKind::all() {
            if kind != MetricKind::AlertsWeightedByPriority {
                assert!(
                    alerts > get(kind),
                    "{} should carry less information",
                    kind.name()
                );
            }
        }
        assert!(get(MetricKind::BlocksRead) < 0.1);
        assert!(alerts > 0.3);
    }

    #[test]
    fn metric_kinds_have_names() {
        for kind in MetricKind::all() {
            assert!(!kind.name().is_empty());
        }
    }
}
