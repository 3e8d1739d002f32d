//! The per-node stochastic model of the paper (Section V-A).
//!
//! A node is in one of three states — healthy (`H`), compromised (`C`) or
//! crashed (`∅`) — and evolves according to the Markovian transition function
//! of Eq. (2), parameterized by the attack probability `p_A`, the crash
//! probabilities `p_C1` (healthy) and `p_C2` (compromised), and the software
//! update probability `p_U`. The controller's actions are wait (`W`) and
//! recover (`R`).

use crate::error::{CoreError, Result};
use crate::observation::{sample_index, ObservationModel};
use rand::Rng;
use tolerance_markov::chain::MarkovChain;

/// The hidden state of a node (Fig. 3 of the paper).
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum NodeState {
    /// The replica is healthy.
    #[default]
    Healthy,
    /// The replica is compromised by the attacker.
    Compromised,
    /// The node has crashed (absorbing; a restarted node is a new node).
    Crashed,
}

impl NodeState {
    /// Every state, in the order the tables of [`NodeModel`] index them.
    pub(crate) const ALL: [NodeState; 3] = [
        NodeState::Healthy,
        NodeState::Compromised,
        NodeState::Crashed,
    ];

    /// The state's position in [`NodeState::ALL`].
    pub(crate) const fn index(self) -> usize {
        self as usize
    }

    /// The cost-function encoding of the state used in Eq. (5):
    /// `H = 0`, `C = 1`. Crashed nodes are out of the local control problem.
    fn cost_value(self) -> f64 {
        match self {
            NodeState::Healthy => 0.0,
            NodeState::Compromised => 1.0,
            NodeState::Crashed => 0.0,
        }
    }
}

/// The node controller's action (Fig. 3): wait or recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum NodeAction {
    /// Do nothing this time-step.
    Wait,
    /// Recover the replica (replace its container); completes by the next
    /// time-step.
    Recover,
}

impl NodeAction {
    /// Both actions, in the order the tables of [`NodeModel`] index them.
    pub(crate) const ALL: [NodeAction; 2] = [NodeAction::Wait, NodeAction::Recover];

    /// The action's position in [`NodeAction::ALL`].
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

/// The transition-probability parameters of Eq. (2).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NodeParameters {
    /// Probability that the attacker compromises the node during one
    /// time-step (`p_{A,i}`).
    pub p_attack: f64,
    /// Probability that the node crashes while healthy (`p_{C1,i}`).
    pub p_crash_healthy: f64,
    /// Probability that the node crashes while compromised (`p_{C2,i}`).
    pub p_crash_compromised: f64,
    /// Probability that the replica's software is updated, which also
    /// restores a compromised replica (`p_{U,i}`).
    pub p_update: f64,
}

impl Default for NodeParameters {
    /// The parameters used throughout the paper's evaluation (Appendix E):
    /// `p_A = 0.1`, `p_C1 = 1e-5`, `p_C2 = 1e-3`, `p_U = 0.02`.
    fn default() -> Self {
        NodeParameters {
            p_attack: 0.1,
            p_crash_healthy: 1e-5,
            p_crash_compromised: 1e-3,
            p_update: 0.02,
        }
    }
}

impl NodeParameters {
    /// Validates assumptions A–C of Theorem 1.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when:
    /// * (A) any probability lies outside `(0, 1)`;
    /// * (B) `p_A + p_U > 1`;
    /// * (C) the crash-probability inequality of Theorem 1 fails.
    pub fn validate_theorem1(&self) -> Result<()> {
        let ps = [
            ("p_attack", self.p_attack),
            ("p_crash_healthy", self.p_crash_healthy),
            ("p_crash_compromised", self.p_crash_compromised),
            ("p_update", self.p_update),
        ];
        for (name, p) in ps {
            if !(p > 0.0 && p < 1.0) {
                return Err(CoreError::InvalidParameter {
                    name,
                    reason: format!("assumption A requires values in (0, 1), got {p}"),
                });
            }
        }
        if self.p_attack + self.p_update > 1.0 {
            return Err(CoreError::InvalidParameter {
                name: "p_attack + p_update",
                reason: format!(
                    "assumption B requires p_A + p_U <= 1, got {}",
                    self.p_attack + self.p_update
                ),
            });
        }
        // Assumption C: pC1 (pU - 1) / (pA (pC1 - 1) + pC1 (pU - 1)) <= pC2.
        let numerator = self.p_crash_healthy * (self.p_update - 1.0);
        let denominator = self.p_attack * (self.p_crash_healthy - 1.0)
            + self.p_crash_healthy * (self.p_update - 1.0);
        let bound = numerator / denominator;
        if bound > self.p_crash_compromised {
            return Err(CoreError::InvalidParameter {
                name: "p_crash_compromised",
                reason: format!(
                    "assumption C requires p_C2 >= {bound:.3e}, got {}",
                    self.p_crash_compromised
                ),
            });
        }
        Ok(())
    }

    /// The transition function `f_{N,i}(s' | s, a)` of Eq. (2). This is the
    /// formula; [`NodeModel`] tabulates it once and everything that steps a
    /// node reads the table.
    pub fn transition_probability(
        &self,
        state: NodeState,
        action: NodeAction,
        next: NodeState,
    ) -> f64 {
        let p = self;
        use NodeAction::*;
        use NodeState::*;
        match (state, action, next) {
            // (2a)-(2c): transitions to the absorbing crashed state.
            (Crashed, _, Crashed) => 1.0,
            (Crashed, _, _) => 0.0,
            (Healthy, _, Crashed) => p.p_crash_healthy,
            (Compromised, _, Crashed) => p.p_crash_compromised,
            // (2d)-(2g): transitions to healthy.
            (Healthy, Recover, Healthy) | (Healthy, Wait, Healthy) => {
                (1.0 - p.p_attack) * (1.0 - p.p_crash_healthy)
            }
            (Compromised, Recover, Healthy) => (1.0 - p.p_attack) * (1.0 - p.p_crash_compromised),
            (Compromised, Wait, Healthy) => (1.0 - p.p_crash_compromised) * p.p_update,
            // (2h)-(2j): transitions to compromised.
            (Healthy, _, Compromised) => (1.0 - p.p_crash_healthy) * p.p_attack,
            (Compromised, Recover, Compromised) => (1.0 - p.p_crash_compromised) * p.p_attack,
            (Compromised, Wait, Compromised) => (1.0 - p.p_crash_compromised) * (1.0 - p.p_update),
        }
    }

    /// Eq. (2) evaluated on every `(action, state, next)` triple.
    fn transition_table(&self) -> TransitionTable {
        NodeAction::ALL.map(|action| {
            NodeState::ALL.map(|state| {
                NodeState::ALL.map(|next| self.transition_probability(state, action, next))
            })
        })
    }
}

/// Eq. (2) as data: `[action][state][next]`.
pub(crate) type TransitionTable = [[[f64; 3]; 3]; 2];

/// The complete node model: transition parameters plus the observation model
/// `Z_i(o | s)` of Eq. (3), with Eq. (2) tabulated from the parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeModel {
    parameters: NodeParameters,
    observations: ObservationModel,
    transitions: TransitionTable,
}

impl NodeModel {
    /// Creates a node model, validating the Theorem 1 assumptions on the
    /// parameters (A–C) and the observation model (D–E).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if any assumption fails.
    pub fn new(parameters: NodeParameters, observations: ObservationModel) -> Result<Self> {
        parameters.validate_theorem1()?;
        observations.validate_theorem1()?;
        Ok(NodeModel::new_unchecked(parameters, observations))
    }

    /// Creates a model without validating the Theorem 1 assumptions (used by
    /// sensitivity sweeps that deliberately violate them, e.g. Fig. 14).
    pub fn new_unchecked(parameters: NodeParameters, observations: ObservationModel) -> Self {
        NodeModel {
            parameters,
            observations,
            transitions: parameters.transition_table(),
        }
    }

    /// The transition parameters.
    pub fn parameters(&self) -> &NodeParameters {
        &self.parameters
    }

    /// The observation model.
    pub(crate) fn observations(&self) -> &ObservationModel {
        &self.observations
    }

    /// The transition function `f_{N,i}(s' | s, a)` of Eq. (2), read from
    /// the table built at construction.
    pub fn transition_probability(
        &self,
        state: NodeState,
        action: NodeAction,
        next: NodeState,
    ) -> f64 {
        self.transitions[action.index()][state.index()][next.index()]
    }

    /// Eq. (2) as `[action][state][next]`, indexed by [`NodeAction::index`]
    /// and [`NodeState::index`].
    pub(crate) fn transitions(&self) -> &TransitionTable {
        &self.transitions
    }

    /// Samples the next state.
    pub fn sample_transition<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        state: NodeState,
        action: NodeAction,
    ) -> NodeState {
        let row = &self.transitions[action.index()][state.index()];
        NodeState::ALL[sample_index(row, rng.random::<f64>())]
    }

    /// The cost function `c_N(s, a) = η·s − a·η·s + a` of Eq. (5).
    pub fn cost(&self, state: NodeState, action: NodeAction, eta: f64) -> f64 {
        let s = state.cost_value();
        let a = match action {
            NodeAction::Wait => 0.0,
            NodeAction::Recover => 1.0,
        };
        eta * s - a * eta * s + a
    }

    /// The three-state Markov chain of the node under a fixed "always wait"
    /// policy, ordered `[Healthy, Compromised, Crashed]`. This is the chain
    /// behind Fig. 5 of the paper.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Markov`] if the rows fail stochastic validation
    /// (cannot happen for validated parameters).
    fn wait_chain(&self) -> Result<MarkovChain> {
        let rows = self.transitions[NodeAction::Wait.index()]
            .iter()
            .map(|row| row.to_vec())
            .collect();
        Ok(MarkovChain::new(rows)?)
    }

    /// `P[S_t = C ∪ S_t = ∅]` after `t` steps with no recoveries, starting
    /// healthy (the curves of Fig. 5).
    ///
    /// # Errors
    ///
    /// Propagates Markov-chain construction errors.
    pub fn failure_probability_by(&self, t: u32) -> Result<f64> {
        let chain = self.wait_chain()?;
        let dist = chain.propagate(&[1.0, 0.0, 0.0], t)?;
        Ok(dist[1] + dist[2])
    }

    /// The two-state POMDP over `{Healthy, Compromised}` obtained by
    /// conditioning on the node not crashing, used by the exact
    /// incremental-pruning baseline and by Fig. 4. The crash probabilities of
    /// the paper's evaluation (`1e-5`, `1e-3`) make this conditioning a
    /// faithful approximation; crashes themselves are directly observable and
    /// handled outside the POMDP (a crashed node is evicted, Section V-B).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Solver`] if the resulting model fails validation.
    pub fn to_pomdp(&self, eta: f64, discount: f64) -> Result<tolerance_pomdp::Pomdp> {
        let states = [NodeState::Healthy, NodeState::Compromised];
        let actions = [NodeAction::Wait, NodeAction::Recover];
        let mut transition = vec![vec![vec![0.0; 2]; 2]; 2];
        for (ai, table) in self.transitions.iter().enumerate() {
            for (si, table_row) in table[..2].iter().enumerate() {
                let mut row = table_row[..2].to_vec();
                let total: f64 = row.iter().sum();
                for v in row.iter_mut() {
                    *v /= total;
                }
                transition[ai][si] = row;
            }
        }
        let observation = vec![
            self.observations.healthy_distribution().to_vec(),
            self.observations.compromised_distribution().to_vec(),
        ];
        let cost = states
            .iter()
            .map(|&s| actions.iter().map(|&a| self.cost(s, a, eta)).collect())
            .collect();
        tolerance_pomdp::Pomdp::new(transition, observation, cost, discount)
            .map_err(CoreError::from)
    }

    /// One Bayesian update of the scalar compromise belief `b = P[S = C]`
    /// (Appendix A restricted to the two operational states), given the
    /// action taken at the previous step and the number of weighted IDS
    /// alerts observed: [`NodeModel::belief_update_events`] over one event.
    pub fn belief_update(&self, belief: f64, action: NodeAction, alerts: u64) -> f64 {
        self.belief_update_events(belief, action, std::slice::from_ref(&alerts))
    }

    /// The belief recursion of Eq. (4) over the weighted IDS alert events
    /// observed within one time-step: one prediction under the action taken,
    /// then one Bayes correction per event, `O(1)` each. No events is
    /// prediction only, and an event with zero likelihood in both states
    /// leaves the belief unchanged.
    pub fn belief_update_events(&self, belief: f64, action: NodeAction, events: &[u64]) -> f64 {
        let b = belief.clamp(0.0, 1.0);
        let Some(predicted) = predict(&self.transitions[action.index()], b) else {
            return b;
        };
        let likelihoods = |alerts| {
            [NodeState::Healthy, NodeState::Compromised]
                .map(|state| self.observations.probability(state, alerts))
        };
        events.iter().fold(predicted, |belief, &alerts| {
            correct(belief, likelihoods(alerts))
        })[1]
    }
}

/// [`NodeModel::belief_update`] on the numbers it needs (the rollout's inner
/// step): Eq. (2) under the action taken (`[state][next]`) and the
/// likelihoods `[Z(o | H), Z(o | C)]` of the observation.
#[inline]
pub(crate) fn posterior(transitions: &[[f64; 3]; 3], likelihoods: [f64; 2], belief: f64) -> f64 {
    let b = belief.clamp(0.0, 1.0);
    predict(transitions, b).map_or(b, |predicted| correct(predicted, likelihoods)[1])
}

/// The prediction half of Eq. (4): the belief `b` carried through Eq. (2),
/// conditioned on not crashing, as `[P(H), P(C)]`; `None` when no mass
/// survives.
#[inline]
fn predict(transitions: &[[f64; 3]; 3], b: f64) -> Option<[f64; 2]> {
    let mut predicted = [0.0f64; 2];
    let prior = [1.0 - b, b];
    for (si, &weight) in prior.iter().enumerate() {
        for (ni, mass) in predicted.iter_mut().enumerate() {
            *mass += weight * transitions[si][ni];
        }
    }
    let total = predicted[0] + predicted[1];
    if total <= 0.0 {
        return None;
    }
    Some(predicted.map(|mass| mass / total))
}

/// The correction half of Eq. (4): Bayes with the likelihoods
/// `[Z(o | H), Z(o | C)]` of one observation. An observation impossible in
/// both states leaves the belief unchanged.
#[inline]
fn correct(belief: [f64; 2], likelihoods: [f64; 2]) -> [f64; 2] {
    let joint = [likelihoods[0] * belief[0], likelihoods[1] * belief[1]];
    let evidence = joint[0] + joint[1];
    if evidence <= 0.0 {
        belief
    } else {
        joint.map(|mass| mass / evidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    fn model() -> NodeModel {
        NodeModel::new(NodeParameters::default(), ObservationModel::paper_default()).unwrap()
    }

    #[test]
    fn default_parameters_satisfy_theorem1_assumptions() {
        assert!(NodeParameters::default().validate_theorem1().is_ok());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let p = NodeParameters {
            p_attack: 0.0,
            ..NodeParameters::default()
        };
        assert!(p.validate_theorem1().is_err());
        let p = NodeParameters {
            p_attack: 0.6,
            p_update: 0.5,
            ..NodeParameters::default()
        };
        assert!(p.validate_theorem1().is_err(), "assumption B must fail");
        let p = NodeParameters {
            p_crash_healthy: 0.5,
            p_crash_compromised: 1e-6,
            ..NodeParameters::default()
        };
        assert!(p.validate_theorem1().is_err(), "assumption C must fail");
    }

    #[test]
    fn transition_rows_are_stochastic_for_all_state_action_pairs() {
        let m = model();
        let states = [
            NodeState::Healthy,
            NodeState::Compromised,
            NodeState::Crashed,
        ];
        for &s in &states {
            for &a in &[NodeAction::Wait, NodeAction::Recover] {
                let total: f64 = states
                    .iter()
                    .map(|&s2| m.transition_probability(s, a, s2))
                    .sum();
                assert_close(total, 1.0, 1e-12);
            }
        }
    }

    #[test]
    fn transition_function_matches_eq2() {
        let m = model();
        let p = *m.parameters();
        use NodeAction::*;
        use NodeState::*;
        assert_close(m.transition_probability(Crashed, Wait, Crashed), 1.0, 1e-15);
        assert_close(
            m.transition_probability(Healthy, Wait, Crashed),
            p.p_crash_healthy,
            1e-15,
        );
        assert_close(
            m.transition_probability(Compromised, Recover, Crashed),
            p.p_crash_compromised,
            1e-15,
        );
        assert_close(
            m.transition_probability(Healthy, Wait, Healthy),
            (1.0 - p.p_attack) * (1.0 - p.p_crash_healthy),
            1e-15,
        );
        assert_close(
            m.transition_probability(Compromised, Recover, Healthy),
            (1.0 - p.p_attack) * (1.0 - p.p_crash_compromised),
            1e-15,
        );
        assert_close(
            m.transition_probability(Compromised, Wait, Healthy),
            (1.0 - p.p_crash_compromised) * p.p_update,
            1e-15,
        );
        assert_close(
            m.transition_probability(Healthy, Recover, Compromised),
            (1.0 - p.p_crash_healthy) * p.p_attack,
            1e-15,
        );
        assert_close(
            m.transition_probability(Compromised, Wait, Compromised),
            (1.0 - p.p_crash_compromised) * (1.0 - p.p_update),
            1e-15,
        );
    }

    #[test]
    fn cost_function_matches_eq5() {
        let m = model();
        let eta = 2.0;
        assert_eq!(m.cost(NodeState::Healthy, NodeAction::Wait, eta), 0.0);
        assert_eq!(m.cost(NodeState::Healthy, NodeAction::Recover, eta), 1.0);
        assert_eq!(m.cost(NodeState::Compromised, NodeAction::Wait, eta), 2.0);
        assert_eq!(
            m.cost(NodeState::Compromised, NodeAction::Recover, eta),
            1.0
        );
    }

    #[test]
    fn failure_probability_matches_closed_form_for_fig5() {
        // With p_U = 0 the time to leave H is geometric:
        // P[fail by t] = 1 - ((1-pA)(1-pC1))^t ... but P[C or crashed] also
        // includes paths returning to H via p_U; use p_U ~ 0 for the check.
        let params = NodeParameters {
            p_update: 1e-12,
            ..NodeParameters::default()
        };
        let m = NodeModel::new_unchecked(params, ObservationModel::paper_default());
        for t in [1u32, 5, 20, 100] {
            let stay_healthy = (1.0 - params.p_attack) * (1.0 - params.p_crash_healthy);
            let expected = 1.0 - stay_healthy.powi(t as i32);
            assert_close(m.failure_probability_by(t).unwrap(), expected, 1e-9);
        }
        // Monotone increasing in t.
        let m = model();
        let p10 = m.failure_probability_by(10).unwrap();
        let p50 = m.failure_probability_by(50).unwrap();
        assert!(p50 >= p10);
    }

    #[test]
    fn failure_probability_orders_by_attack_rate() {
        // Fig. 5: larger p_A fails sooner.
        let observations = ObservationModel::paper_default();
        let mut previous = 0.0;
        for p_attack in [0.01, 0.025, 0.05, 0.1] {
            let params = NodeParameters {
                p_attack,
                ..NodeParameters::default()
            };
            let m = NodeModel::new(params, observations.clone()).unwrap();
            let p = m.failure_probability_by(30).unwrap();
            assert!(p > previous, "p_A = {p_attack} should fail more often");
            previous = p;
        }
    }

    #[test]
    fn belief_update_reacts_to_alerts() {
        let m = model();
        let quiet = m.belief_update(0.2, NodeAction::Wait, 0);
        let noisy = m.belief_update(0.2, NodeAction::Wait, 9);
        assert!(
            noisy > 0.2,
            "many alerts must increase the belief, got {noisy}"
        );
        assert!(quiet < noisy);
        // Recovery resets the belief towards the attack prior.
        let after_recovery = m.belief_update(0.95, NodeAction::Recover, 0);
        assert!(after_recovery < 0.5);
        // Belief stays in [0, 1].
        for alerts in 0..=10 {
            for &b in &[0.0, 0.3, 0.9, 1.0] {
                let updated = m.belief_update(b, NodeAction::Wait, alerts);
                assert!((0.0..=1.0).contains(&updated));
            }
        }
    }

    #[test]
    fn belief_converges_towards_one_under_sustained_alerts() {
        let m = model();
        let mut belief = m.parameters().p_attack;
        for _ in 0..20 {
            belief = m.belief_update(belief, NodeAction::Wait, 9);
        }
        assert!(
            belief > 0.95,
            "sustained heavy alerts should saturate the belief, got {belief}"
        );
    }

    #[test]
    fn pomdp_conversion_is_consistent() {
        let m = model();
        let pomdp = m.to_pomdp(2.0, 0.99).unwrap();
        assert_eq!(pomdp.num_actions(), 2);
        assert_eq!(
            pomdp.num_observations(),
            m.observations().healthy_distribution().len()
        );
        assert_eq!(pomdp.cost(1, 0), 2.0);
        assert_eq!(pomdp.cost(0, 1), 1.0);
    }

    #[test]
    fn sampling_follows_the_transition_probabilities() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(3);
        let compromised = (0..20_000)
            .filter(|_| {
                m.sample_transition(&mut rng, NodeState::Healthy, NodeAction::Wait)
                    == NodeState::Compromised
            })
            .count();
        let fraction = compromised as f64 / 20_000.0;
        assert!((fraction - 0.1).abs() < 0.01, "fraction {fraction}");
        // Crashed stays crashed.
        assert_eq!(
            m.sample_transition(&mut rng, NodeState::Crashed, NodeAction::Recover),
            NodeState::Crashed
        );
    }

    #[test]
    fn wait_chain_mttf_is_finite_and_positive() {
        let m = model();
        let chain = m.wait_chain().unwrap();
        let hitting = chain.mean_hitting_time(&[1, 2]).unwrap();
        // From healthy, the expected time to compromise-or-crash is ~1/pA = 10.
        assert!(
            (hitting[0] - 10.0).abs() < 0.5,
            "hitting time {}",
            hitting[0]
        );
    }
}
