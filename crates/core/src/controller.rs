//! The runtime controllers of the TOLERANCE architecture (Fig. 1 / Fig. 2).
//!
//! * [`NodeController`] — runs in each node's privileged domain. Every
//!   time-step it receives the weighted IDS-alert count of its replica,
//!   updates the compromise belief (Eq. 4) and decides whether to recover the
//!   replica (the threshold rule of Theorem 1 with the BTR constraint).
//! * [`SystemController`] — runs on the crash-tolerant substrate. Every
//!   time-step it collects the node beliefs, estimates the number of healthy
//!   nodes (Eq. 8), evicts nodes that failed to report (crashed) and decides
//!   whether to add a node (the threshold-mixture rule of Theorem 2 computed
//!   by Algorithm 2).
//! * [`allocate_recoveries`] — the k-parallel-recovery budget of
//!   Proposition 1. Both it and [`SystemController::decide`] run inside the
//!   control plane's tick, the one loop the live and simulated clusters and
//!   the Table-7 emulation all run.

use crate::node_model::{NodeAction, NodeModel};
use crate::recovery::ThresholdStrategy;
use crate::replication::{ReplicationProblem, ReplicationStrategy};
use rand::Rng;

/// The per-node controller of the local control level.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeController {
    model: NodeModel,
    strategy: ThresholdStrategy,
    belief: f64,
    steps_since_recovery: u32,
    previous_action: NodeAction,
    recoveries: u64,
    steps: u64,
    /// The belief at the moment of the last recovery request, kept so a
    /// deferred actuation can restore the controller's urgency (see
    /// [`NodeController::notify_deferred`]).
    last_request_belief: f64,
}

impl NodeController {
    /// Creates a controller with the initial belief `b_1 = p_A` (Problem 1's
    /// initial state distribution).
    pub fn new(model: NodeModel, strategy: ThresholdStrategy) -> Self {
        let initial_belief = model.parameters().p_attack;
        NodeController {
            model,
            strategy,
            belief: initial_belief,
            steps_since_recovery: 0,
            previous_action: NodeAction::Wait,
            recoveries: 0,
            steps: 0,
            last_request_belief: initial_belief,
        }
    }

    /// The current compromise belief `b_t` (Eq. 4).
    pub fn belief(&self) -> f64 {
        self.belief
    }

    /// The belief the controller's most recent recovery request was decided
    /// on (the pre-reset value — [`NodeController::belief`] already reads
    /// the post-recovery prior by the time the caller sees the `Recover`
    /// action).
    pub(crate) fn last_request_belief(&self) -> f64 {
        self.last_request_belief
    }

    /// Total recoveries so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Total observed time-steps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Processes one time-step: updates the belief from the weighted alert
    /// count and returns the action the node should execute. A sample is a
    /// one-event stream ([`NodeController::observe_events`]).
    pub fn observe_and_decide(&mut self, weighted_alerts: u64) -> NodeAction {
        self.observe_events(std::slice::from_ref(&weighted_alerts))
    }

    /// Processes one time-step observed as the weighted IDS alert events
    /// since the last control decision: the belief takes one prediction under
    /// the previous action and one Bayes correction per event
    /// ([`NodeModel::belief_update_events`]), then the threshold rule
    /// decides. An empty batch is a quiet step, prediction only.
    pub fn observe_events(&mut self, events: &[u64]) -> NodeAction {
        self.steps += 1;
        self.belief = self
            .model
            .belief_update_events(self.belief, self.previous_action, events);
        let action = self.strategy.decide(self.belief, self.steps_since_recovery);
        match action {
            NodeAction::Recover => {
                self.recoveries += 1;
                self.steps_since_recovery = 0;
                self.last_request_belief = self.belief;
                self.belief = self.model.parameters().p_attack;
            }
            NodeAction::Wait => self.steps_since_recovery += 1,
        }
        self.previous_action = action;
        action
    }

    /// Re-arms the controller after its requested recovery was **deferred**
    /// (lost the k-parallel-recovery truncation, or the actuator refused —
    /// e.g. no state donor existed): the deciding belief is restored and
    /// the action history rolled back to `Wait`, so the threshold rule
    /// fires again on the very next observation instead of waiting for the
    /// belief to re-climb from the post-recovery prior (or for Δ_R to
    /// elapse).
    pub(crate) fn notify_deferred(&mut self) {
        self.recoveries = self.recoveries.saturating_sub(1);
        self.belief = self.last_request_belief;
        self.previous_action = NodeAction::Wait;
        if let Some(delta_r) = self.strategy.delta_r() {
            self.steps_since_recovery = self.steps_since_recovery.max(delta_r);
        }
    }

    /// Resets the controller after an externally triggered recovery (e.g.
    /// the replica was replaced as part of a reconfiguration).
    pub fn notify_recovered(&mut self) {
        self.steps_since_recovery = 0;
        self.belief = self.model.parameters().p_attack;
        self.previous_action = NodeAction::Recover;
    }
}

/// Grants recovery requests within the k-slot budget of Proposition 1.
///
/// `requests` pairs each requester's key with the belief its request was
/// decided on. They are ranked highest belief first, ties by key ascending;
/// in that order, while fewer than `k.max(1)` requests have been granted,
/// `recover` actuates a request, and a refusal (`Ok(false)`) uses up no
/// slot. Returns how many were granted: `requests` ends with the granted
/// requests first and the deferred ones (refused or over the budget) after
/// them, each in rank order.
///
/// # Errors
///
/// Stops at the first error of `recover`.
pub fn allocate_recoveries<K: Ord + Copy, E>(
    requests: &mut [(K, f64)],
    k: usize,
    mut recover: impl FnMut(K) -> std::result::Result<bool, E>,
) -> std::result::Result<usize, E> {
    requests.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut granted = 0;
    for index in 0..requests.len() {
        if granted < k.max(1) && recover(requests[index].0)? {
            requests[granted..=index].rotate_right(1);
            granted += 1;
        }
    }
    Ok(granted)
}

/// The decision of the system controller for one time-step.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SystemDecision {
    /// Whether a new node should be added this step.
    pub add_node: bool,
    /// Indices (into the reported belief vector) of nodes considered crashed
    /// because they failed to report; they are evicted from the system.
    pub evict: Vec<usize>,
    /// The expected number of healthy nodes used as the CMDP state.
    pub estimated_healthy: usize,
}

/// The global controller of the replication factor.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemController {
    strategy: ReplicationStrategy,
    evictions: u64,
}

impl SystemController {
    /// Creates a system controller from a replication strategy computed by
    /// Algorithm 2.
    pub fn new(strategy: ReplicationStrategy) -> Self {
        SystemController {
            strategy,
            evictions: 0,
        }
    }

    /// Processes one time-step given the reported beliefs. A report of
    /// `None` means the node failed to send its belief and is treated as
    /// crashed (Section V-B).
    pub fn decide<R: Rng + ?Sized>(
        &mut self,
        reports: &[Option<f64>],
        rng: &mut R,
    ) -> SystemDecision {
        let evict: Vec<usize> = reports
            .iter()
            .enumerate()
            .filter(|(_, report)| report.is_none())
            .map(|(index, _)| index)
            .collect();
        self.evictions += evict.len() as u64;
        let beliefs: Vec<f64> = reports.iter().filter_map(|r| *r).collect();
        let estimated_healthy = ReplicationProblem::expected_healthy(&beliefs);
        let add_node = self.strategy.decide(estimated_healthy, rng);
        SystemDecision {
            add_node,
            evict,
            estimated_healthy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_model::{NodeParameters, NodeState};
    use crate::observation::ObservationModel;
    use crate::replication::ReplicationConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn node_controller(threshold: f64) -> NodeController {
        let model =
            NodeModel::new(NodeParameters::default(), ObservationModel::paper_default()).unwrap();
        NodeController::new(model, ThresholdStrategy::stationary(threshold).unwrap())
    }

    #[test]
    fn controller_recovers_under_sustained_alerts_and_not_when_quiet() {
        let mut controller = node_controller(0.8);
        // Quiet observations: no recovery.
        for _ in 0..20 {
            assert_eq!(controller.observe_and_decide(0), NodeAction::Wait);
        }
        assert_eq!(controller.recoveries(), 0);
        assert!(controller.belief() < 0.5);

        // Heavy alerts: the belief crosses the threshold and triggers recovery.
        let mut recovered = false;
        for _ in 0..10 {
            if controller.observe_and_decide(10) == NodeAction::Recover {
                recovered = true;
                break;
            }
        }
        assert!(
            recovered,
            "sustained max-priority alerts must trigger recovery"
        );
        assert_eq!(controller.recoveries(), 1);
        assert_eq!(controller.steps_since_recovery, 0);
        // The belief resets to the attack prior after recovery.
        assert!((controller.belief() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn btr_strategy_forces_periodic_recovery_via_controller() {
        let model =
            NodeModel::new(NodeParameters::default(), ObservationModel::paper_default()).unwrap();
        let strategy = ThresholdStrategy::new(vec![1.0; 4], Some(5)).unwrap();
        let mut controller = NodeController::new(model, strategy);
        let mut recoveries = 0;
        for _ in 0..25 {
            if controller.observe_and_decide(0) == NodeAction::Recover {
                recoveries += 1;
            }
        }
        assert!(
            recoveries >= 4,
            "BTR must force ~1 recovery per 5 steps, got {recoveries}"
        );
        assert_eq!(controller.steps(), 25);
    }

    #[test]
    fn event_stream_observation_matches_the_scalar_recursion() {
        // One event per step is the per-step scalar update, bit for bit; a
        // dense alert burst pushes the belief over the threshold just like
        // sustained samples.
        let mut scalar = node_controller(0.99);
        let mut streamed = node_controller(0.99);
        for alerts in [0u64, 3, 7, 1, 10, 10, 11, 99] {
            scalar.observe_and_decide(alerts);
            streamed.observe_events(&[alerts]);
            assert_eq!(scalar.belief().to_bits(), streamed.belief().to_bits());
        }

        let mut controller = node_controller(0.8);
        // A quiet stream (no events) keeps the belief near the prior drift.
        controller.observe_events(&[]);
        assert!(controller.belief() < 0.5);
        // One step with a burst of max-priority events recovers immediately.
        let action = controller.observe_events(&[10, 10, 10, 10, 10]);
        assert_eq!(action, NodeAction::Recover);
        assert_eq!(controller.recoveries(), 1);
        assert_eq!(controller.steps(), 2);
    }

    #[test]
    fn notify_recovered_resets_state() {
        let mut controller = node_controller(0.9);
        for _ in 0..5 {
            controller.observe_and_decide(10);
        }
        controller.notify_recovered();
        assert_eq!(controller.steps_since_recovery, 0);
        assert!((controller.belief() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn the_budget_breaks_a_belief_tie_by_key_and_skips_refusals() {
        let mut requests = [(3, 0.5), (1, 0.9), (2, 0.5), (0, 0.7)];
        // Key 0 refuses: it takes no slot, so 1 and the tie's lower key 2
        // recover and the tie's higher key 3 is deferred.
        assert_eq!(
            allocate_recoveries(&mut requests, 2, |key| Ok::<_, ()>(key != 0)),
            Ok(2)
        );
        assert_eq!(requests.map(|(key, _)| key), [1, 2, 0, 3]);
        // k = 0 still grants one slot; an actuation error stops the budget.
        assert_eq!(
            allocate_recoveries(&mut requests, 0, |_| Ok::<_, ()>(true)),
            Ok(1)
        );
        assert_eq!(requests.map(|(key, _)| key), [1, 0, 2, 3]);
        assert_eq!(
            allocate_recoveries(&mut requests, 2, |key| if key == 0 {
                Err(key)
            } else {
                Ok(true)
            }),
            Err(0)
        );
    }

    #[test]
    fn system_controller_adds_nodes_when_few_healthy_and_evicts_non_reporters() {
        let strategy = ReplicationProblem::new(ReplicationConfig {
            s_max: 10,
            fault_threshold: 2,
            availability_target: 0.95,
            node_survival_probability: 0.85,
        })
        .unwrap()
        .solve()
        .unwrap();
        let mut controller = SystemController::new(strategy);
        let mut rng = StdRng::seed_from_u64(1);

        // All nodes heavily suspected compromised, one not reporting.
        let reports = vec![Some(0.9), Some(0.95), None, Some(0.85)];
        let decision = controller.decide(&reports, &mut rng);
        assert_eq!(decision.evict, vec![2]);
        assert_eq!(decision.estimated_healthy, 0);
        assert!(
            decision.add_node,
            "with zero healthy nodes the controller must add"
        );
        assert_eq!(controller.evictions, 1);

        // A full healthy system does not grow further.
        let reports: Vec<Option<f64>> = vec![Some(0.01); 10];
        let decision = controller.decide(&reports, &mut rng);
        assert_eq!(decision.estimated_healthy, 9);
        assert!(
            !decision.add_node,
            "a saturated healthy system should not add nodes"
        );
        assert!(controller.strategy.add_probability(9) < 0.5);
    }

    #[test]
    fn observation_sampling_drives_controller_like_a_real_node() {
        // End-to-end sanity: a compromised node produces alert samples that
        // eventually push the controller to recover.
        let model =
            NodeModel::new(NodeParameters::default(), ObservationModel::paper_default()).unwrap();
        let mut controller =
            NodeController::new(model.clone(), ThresholdStrategy::stationary(0.75).unwrap());
        let mut rng = StdRng::seed_from_u64(2);
        let mut recovered_within = None;
        for t in 0..50 {
            let alerts = model
                .observations()
                .sample(NodeState::Compromised, &mut rng);
            if controller.observe_and_decide(alerts) == NodeAction::Recover {
                recovered_within = Some(t);
                break;
            }
        }
        assert!(
            recovered_within.is_some(),
            "controller never recovered a compromised node"
        );
        assert!(
            recovered_within.unwrap() < 20,
            "recovery took too long: {recovered_within:?}"
        );
    }
}
