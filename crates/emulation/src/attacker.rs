//! The emulated attacker.
//!
//! The paper's attacker works through the container-specific intrusion steps
//! of Table 6 (reconnaissance, brute force, exploit) and, after compromising
//! a replica, randomly chooses between (a) participating in the consensus
//! protocol, (b) staying silent, and (c) participating with random messages
//! (Section VIII-A). This module reproduces that behaviour: each node under
//! attack progresses through its playbook one step per time-step, generating
//! extra IDS noise along the way, and is compromised when the playbook
//! completes.

use crate::containers::ContainerConfig;
use rand::Rng;
use serde::{Deserialize, Serialize};
use tolerance_consensus::ByzantineMode;

/// How a compromised replica behaves (the attacker's post-compromise choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum AttackerBehavior {
    /// Keeps participating correctly in the consensus protocol (stealthy).
    Participate,
    /// Stops participating.
    Silent,
    /// Participates with randomly corrupted messages.
    RandomMessages,
}

impl AttackerBehavior {
    /// Samples a behaviour uniformly at random, as in the paper.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        match rng.random_range(0..3u8) {
            0 => AttackerBehavior::Participate,
            1 => AttackerBehavior::Silent,
            _ => AttackerBehavior::RandomMessages,
        }
    }

    /// The MinBFT fault-injection mode corresponding to this behaviour.
    pub fn byzantine_mode(self) -> ByzantineMode {
        match self {
            AttackerBehavior::Participate => ByzantineMode::Correct,
            AttackerBehavior::Silent => ByzantineMode::Silent,
            AttackerBehavior::RandomMessages => ByzantineMode::Arbitrary,
        }
    }
}

/// How the attacker's intrusion pressure evolves over a run.
///
/// The paper's evaluation uses a constant per-step intrusion probability;
/// the scenario runtime additionally supports campaign-style attackers that
/// concentrate their intrusion attempts in bursts (the same mean pressure
/// can produce very different availability when attacks are correlated in
/// time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum AttackProfile {
    /// A constant per-step intrusion probability (the paper's setting).
    #[default]
    Constant,
    /// A bursty campaign: for `active_steps` out of every `period` steps the
    /// intrusion probability is multiplied by `multiplier`; outside the
    /// burst the attacker is dormant.
    Bursty {
        /// Length of one campaign cycle in time-steps.
        period: u32,
        /// Number of active steps at the start of each cycle.
        active_steps: u32,
        /// Intrusion-probability multiplier during the active window.
        multiplier: f64,
    },
}

impl AttackProfile {
    /// The factor applied to the base intrusion probability at `time_step`.
    pub(crate) fn intensity_factor(&self, time_step: u64) -> f64 {
        match *self {
            AttackProfile::Constant => 1.0,
            AttackProfile::Bursty {
                period,
                active_steps,
                multiplier,
            } => {
                if period == 0 {
                    1.0
                } else if time_step % u64::from(period) < u64::from(active_steps) {
                    multiplier
                } else {
                    0.0
                }
            }
        }
    }
}

/// The progress of an intrusion against one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum IntrusionProgress {
    /// No intrusion in progress.
    Idle,
    /// The attacker is executing the playbook; `next_step` indexes into the
    /// container's intrusion steps.
    InProgress {
        /// Index of the next playbook step to execute.
        next_step: usize,
    },
    /// The playbook completed and the replica is compromised.
    Compromised {
        /// The post-compromise behaviour the attacker chose.
        behavior: AttackerBehavior,
        /// The time-step at which the compromise completed.
        since: u64,
    },
}

/// The attacker state for a single node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attacker {
    /// Probability per time-step of starting a new intrusion against a node
    /// that is not already under attack (the `p_A` of the node model).
    pub intrusion_probability: f64,
    progress: IntrusionProgress,
}

impl Attacker {
    /// Creates an idle attacker with the given per-step intrusion
    /// probability.
    pub fn new(intrusion_probability: f64) -> Self {
        Attacker {
            intrusion_probability,
            progress: IntrusionProgress::Idle,
        }
    }

    /// The post-compromise behaviour, if compromised.
    pub(crate) fn behavior(&self) -> Option<AttackerBehavior> {
        match self.progress {
            IntrusionProgress::Compromised { behavior, .. } => Some(behavior),
            _ => None,
        }
    }

    /// The extra IDS-alert intensity contributed by the attacker this step
    /// (loud while the playbook is running, quiet afterwards).
    pub fn step_intensity(&self, container: &ContainerConfig) -> f64 {
        match self.progress {
            IntrusionProgress::InProgress { next_step } => container
                .intrusion_steps
                .get(next_step)
                .map(|s| s.alert_intensity())
                .unwrap_or(0.0),
            _ => 0.0,
        }
    }

    /// Advances the attacker by one time-step against the given container.
    /// Returns `true` if the node transitioned to compromised during this
    /// step.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        container: &ContainerConfig,
        time_step: u64,
        rng: &mut R,
    ) -> bool {
        match &mut self.progress {
            IntrusionProgress::Idle => {
                if rng.random::<f64>() < self.intrusion_probability {
                    self.progress = IntrusionProgress::InProgress { next_step: 0 };
                }
                false
            }
            IntrusionProgress::InProgress { next_step } => {
                *next_step += 1;
                if *next_step >= container.intrusion_steps.len() {
                    self.progress = IntrusionProgress::Compromised {
                        behavior: AttackerBehavior::sample(rng),
                        since: time_step,
                    };
                    true
                } else {
                    false
                }
            }
            IntrusionProgress::Compromised { .. } => false,
        }
    }

    /// Resets the attacker after the node is recovered or replaced (a new
    /// container means the attacker must start over).
    pub fn reset(&mut self) {
        self.progress = IntrusionProgress::Idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containers::ContainerCatalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Observers of the progress state machine for the assertions below.
    impl Attacker {
        fn is_compromised(&self) -> bool {
            matches!(self.progress, IntrusionProgress::Compromised { .. })
        }

        fn is_active(&self) -> bool {
            !matches!(self.progress, IntrusionProgress::Idle)
        }

        fn compromised_since(&self) -> Option<u64> {
            match self.progress {
                IntrusionProgress::Compromised { since, .. } => Some(since),
                _ => None,
            }
        }
    }

    #[test]
    fn attacker_progresses_through_the_playbook_and_compromises() {
        let catalogue = ContainerCatalog::paper_catalog();
        let container = catalogue.by_id(9).unwrap(); // 3-step playbook
        let mut attacker = Attacker::new(1.0); // always starts immediately
        let mut rng = StdRng::seed_from_u64(1);

        assert!(!attacker.is_active());
        assert!(
            !attacker.step(container, 0, &mut rng),
            "step 0 only starts the intrusion"
        );
        assert!(attacker.is_active());
        assert!(!attacker.is_compromised());
        assert!(attacker.step_intensity(container) > 0.0);
        // 3-step playbook: two more steps before compromise completes.
        assert!(!attacker.step(container, 1, &mut rng));
        assert!(!attacker.step(container, 2, &mut rng));
        assert!(attacker.step(container, 3, &mut rng), "playbook completes");
        assert!(attacker.is_compromised());
        assert_eq!(attacker.compromised_since(), Some(3));
        assert!(attacker.behavior().is_some());
        // Further steps do not re-compromise.
        assert!(!attacker.step(container, 4, &mut rng));
        assert_eq!(attacker.step_intensity(container), 0.0);
    }

    #[test]
    fn reset_returns_to_idle() {
        let catalogue = ContainerCatalog::paper_catalog();
        let container = catalogue.by_id(1).unwrap();
        let mut attacker = Attacker::new(1.0);
        let mut rng = StdRng::seed_from_u64(2);
        for t in 0..10 {
            attacker.step(container, t, &mut rng);
        }
        assert!(attacker.is_compromised());
        attacker.reset();
        assert!(!attacker.is_active());
        assert_eq!(attacker.compromised_since(), None);
        assert_eq!(attacker.behavior(), None);
    }

    #[test]
    fn intrusion_probability_controls_the_start_rate() {
        let catalogue = ContainerCatalog::paper_catalog();
        let container = catalogue.by_id(1).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut started = 0;
        for _ in 0..2000 {
            let mut attacker = Attacker::new(0.1);
            attacker.step(container, 0, &mut rng);
            if attacker.is_active() {
                started += 1;
            }
        }
        let fraction = started as f64 / 2000.0;
        assert!((fraction - 0.1).abs() < 0.03, "start rate {fraction}");
    }

    #[test]
    fn attack_profiles_modulate_intensity() {
        let constant = AttackProfile::Constant;
        assert_eq!(constant.intensity_factor(0), 1.0);
        assert_eq!(constant.intensity_factor(999), 1.0);

        let bursty = AttackProfile::Bursty {
            period: 10,
            active_steps: 3,
            multiplier: 4.0,
        };
        assert_eq!(bursty.intensity_factor(0), 4.0);
        assert_eq!(bursty.intensity_factor(2), 4.0);
        assert_eq!(bursty.intensity_factor(3), 0.0);
        assert_eq!(bursty.intensity_factor(9), 0.0);
        assert_eq!(bursty.intensity_factor(10), 4.0);

        // A zero-length period degenerates to the constant profile.
        let degenerate = AttackProfile::Bursty {
            period: 0,
            active_steps: 1,
            multiplier: 2.0,
        };
        assert_eq!(degenerate.intensity_factor(5), 1.0);
    }

    #[test]
    fn behaviour_sampling_covers_all_modes_and_maps_to_byzantine_modes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(format!("{:?}", AttackerBehavior::sample(&mut rng)));
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(
            AttackerBehavior::Participate.byzantine_mode(),
            ByzantineMode::Correct
        );
        assert_eq!(
            AttackerBehavior::Silent.byzantine_mode(),
            ByzantineMode::Silent
        );
        assert_eq!(
            AttackerBehavior::RandomMessages.byzantine_mode(),
            ByzantineMode::Arbitrary
        );
    }
}
