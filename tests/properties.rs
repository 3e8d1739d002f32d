//! Property-based tests (proptest) on the core invariants of the workspace:
//! the node belief update stays in [0, 1], the node transition function stays
//! stochastic over the whole admissible parameter range, the simplex LP
//! solver returns feasible optima and agrees with the best of every basis on
//! random programs, metrics stay in range, threshold strategies respect the
//! BTR constraint for arbitrary belief sequences,
//! the alpha-vector envelope preserves the minimum and keeps exactly the
//! lines a witness LP keeps, the merge of two envelopes is the envelope of
//! their cross sum, every backup of the exact solver agrees with the Bellman
//! recursion computed through a scalar Bayes step on random two-state
//! models, the sharded service plane's key partitioner
//! covers every key exactly once, stays stable under shard-count-preserving
//! reconfiguration and keeps the owned ranges balanced, and the fleet
//! engine's per-shard split RNG streams are pairwise non-colliding.

mod common;

use proptest::prelude::*;
use tolerance::consensus::KeyPartitioner;
use tolerance::core::node_model::{NodeAction, NodeModel, NodeParameters, NodeState};
use tolerance::core::prelude::*;
use tolerance::markov::dist::{BetaBinomial, DiscreteDistribution, PoissonBinomial};
use tolerance::markov::stats::kl_divergence;
use tolerance::optim::simplex::{Comparison, LinearProgram};
use tolerance::pomdp::{AlphaVector, IncrementalPruning, Pomdp, ValueFunction};

fn arbitrary_parameters() -> impl Strategy<Value = NodeParameters> {
    (1e-4..0.5f64, 1e-6..0.05f64, 0.01..0.2f64, 1e-4..0.4f64).prop_map(
        |(p_attack, p_crash_healthy, p_crash_compromised, p_update)| NodeParameters {
            p_attack,
            p_crash_healthy,
            // Keep assumption C satisfied: p_C2 clearly above p_C1.
            p_crash_compromised: p_crash_compromised.max(p_crash_healthy * 2.0),
            p_update: p_update.min(1.0 - p_attack - 1e-3).max(1e-4),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn node_transition_rows_are_stochastic(parameters in arbitrary_parameters()) {
        let model = NodeModel::new_unchecked(parameters, ObservationModel::paper_default());
        let states = [NodeState::Healthy, NodeState::Compromised, NodeState::Crashed];
        for &state in &states {
            for &action in &[NodeAction::Wait, NodeAction::Recover] {
                let total: f64 = states
                    .iter()
                    .map(|&next| model.transition_probability(state, action, next))
                    .sum();
                prop_assert!((total - 1.0).abs() < 1e-9);
                for &next in &states {
                    let p = model.transition_probability(state, action, next);
                    prop_assert!((0.0..=1.0).contains(&p));
                }
            }
        }
    }

    #[test]
    fn belief_update_stays_in_unit_interval(
        parameters in arbitrary_parameters(),
        belief in 0.0..1.0f64,
        alerts in proptest::collection::vec(0u64..11, 1..30),
    ) {
        let model = NodeModel::new_unchecked(parameters, ObservationModel::paper_default());
        let mut current = belief;
        for (index, &observation) in alerts.iter().enumerate() {
            let action = if index % 7 == 3 { NodeAction::Recover } else { NodeAction::Wait };
            current = model.belief_update(current, action, observation);
            prop_assert!((0.0..=1.0).contains(&current), "belief {current} escaped [0, 1]");
            prop_assert!(current.is_finite());
        }
    }

    #[test]
    fn threshold_strategy_respects_btr_constraint(
        thresholds in proptest::collection::vec(0.0..=1.0f64, 1..8),
        delta_r in 2u32..20,
        belief in 0.0..1.0f64,
    ) {
        let strategy = ThresholdStrategy::new(thresholds, Some(delta_r)).unwrap();
        // Regardless of the belief, the step just before the period boundary
        // must recover (the BTR constraint of Eq. 6b).
        prop_assert_eq!(strategy.decide(belief, delta_r - 1), NodeAction::Recover);
        // And a belief of 1 always recovers.
        prop_assert_eq!(strategy.decide(1.0, 0), NodeAction::Recover);
    }

    #[test]
    fn beta_binomial_is_a_distribution(n in 1u64..40, alpha in 0.1..5.0f64, beta in 0.1..5.0f64) {
        let dist = BetaBinomial::new(n, alpha, beta).unwrap();
        let total: f64 = (0..=n).map(|k| dist.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-8);
        let mean_from_pmf: f64 = (0..=n).map(|k| k as f64 * dist.pmf(k)).sum();
        prop_assert!((mean_from_pmf - dist.mean()).abs() < 1e-6);
    }

    #[test]
    fn poisson_binomial_matches_mean_and_support(
        probabilities in proptest::collection::vec(0.0..=1.0f64, 1..12)
    ) {
        let dist = PoissonBinomial::new(probabilities.clone()).unwrap();
        let n = probabilities.len() as u64;
        let total: f64 = (0..=n).map(|k| dist.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-8);
        let mean_from_pmf: f64 = (0..=n).map(|k| k as f64 * dist.pmf(k)).sum();
        prop_assert!((mean_from_pmf - dist.mean()).abs() < 1e-8);
        prop_assert_eq!(dist.pmf(n + 1), 0.0);
    }

    #[test]
    fn kl_divergence_is_nonnegative(
        p_weights in proptest::collection::vec(0.01..1.0f64, 2..10),
    ) {
        let total_p: f64 = p_weights.iter().sum();
        let p: Vec<f64> = p_weights.iter().map(|w| w / total_p).collect();
        // q is a shifted copy of p (still positive everywhere).
        let mut q_weights = p_weights.clone();
        q_weights.rotate_left(1);
        let total_q: f64 = q_weights.iter().sum();
        let q: Vec<f64> = q_weights.iter().map(|w| w / total_q).collect();
        let divergence = kl_divergence(&p, &q).unwrap();
        prop_assert!(divergence >= -1e-12);
        prop_assert!(kl_divergence(&p, &p).unwrap().abs() < 1e-12);
    }

    #[test]
    fn lp_solutions_are_feasible(
        capacities in proptest::collection::vec(0.5..5.0f64, 2..6),
    ) {
        // minimize sum(x) subject to x_i <= capacity_i and sum(x) >= half the
        // total capacity. The solver's answer must satisfy every constraint.
        let n = capacities.len();
        let target: f64 = capacities.iter().sum::<f64>() / 2.0;
        let mut lp = LinearProgram::new(n, vec![1.0; n]).unwrap();
        for (i, &capacity) in capacities.iter().enumerate() {
            let mut row = vec![0.0; n];
            row[i] = 1.0;
            lp.add_constraint(row, Comparison::LessEqual, capacity).unwrap();
        }
        lp.add_constraint(vec![1.0; n], Comparison::GreaterEqual, target).unwrap();
        let solution = lp.solve().unwrap();
        let total: f64 = solution.values.iter().sum();
        prop_assert!(total >= target - 1e-6);
        prop_assert!((total - target).abs() < 1e-6, "optimum should be tight at the bound");
        for (value, &capacity) in solution.values.iter().zip(&capacities) {
            prop_assert!(*value >= -1e-9);
            prop_assert!(*value <= capacity + 1e-6);
        }
    }

    #[test]
    fn alpha_pruning_preserves_the_lower_envelope(
        raw_lines in proptest::collection::vec((0.0..5.0f64, 0.0..5.0f64), 1..3000),
        size_exponent in 0.0..11.6f64,
        tangents in proptest::collection::vec((0.0..=1.0f64, 0.0..1.0f64), 0..48),
        curvature in 0.5..8.0f64,
        probes in proptest::collection::vec(0.0..=1.0f64, 2..10),
    ) {
        // Up to ~3,000 random lines (a log-uniform count), most of them far
        // above the envelope, and up to 48 tangents of the concave parabola
        // curvature·b(1 − b) − 1, lifted by 0.01·u⁴: some win by 1e-2, some
        // by less than 1e-9 and some not at all.
        let count = (size_exponent.exp2() as usize).clamp(1, raw_lines.len());
        let mut lines: Vec<AlphaVector> = raw_lines[..count]
            .iter()
            .map(|&(h, c)| [h, c])
            .chain(tangents.iter().map(|&(t, u)| {
                let (value, slope) = (curvature * t * (1.0 - t) - 1.0, curvature * (1.0 - 2.0 * t));
                let lift = 0.01 * u.powi(4);
                [value - slope * t + lift, value + slope * (1.0 - t) + lift]
            }))
            .enumerate()
            .map(|(action, values)| AlphaVector::new(values, action))
            .collect();
        lines.rotate_left(count / 2);
        let envelope = ValueFunction::new(lines.clone());

        // The envelope's value is the minimum over every line.
        for &b in probes.iter().chain(&[0.0, 1.0]) {
            let minimum = lines.iter().map(|line| line_at(line, b)).fold(f64::INFINITY, f64::min);
            prop_assert!((envelope.evaluate(b) - minimum).abs() <= 1e-12,
                "envelope {} vs minimum {minimum} at {b}", envelope.evaluate(b));
        }

        // The reference: a line stays iff the witness LP finds a belief where
        // it beats every other line, judged wherever the margin is clear of
        // ±1e-9. Each other line alone caps the margin at the larger of its
        // two end differences, which settles most lines without an LP.
        let front = pareto_front(&lines, None);
        for (candidate, line) in lines.iter().enumerate() {
            let cap = (front.iter().filter(|&&k| k != candidate))
                .map(|&k| (lines[k].values[0] - line.values[0]).max(lines[k].values[1] - line.values[1]))
                .fold(f64::INFINITY, f64::min);
            let margin = if cap < -1e-9 {
                cap
            } else {
                witness_lp_margin(&lines, &pareto_front(&lines, Some(candidate)), candidate)
            };
            let kept = envelope.vectors().contains(line);
            prop_assert!(kept || margin <= 1e-9, "line {candidate} (margin {margin}) dropped");
            prop_assert!(!kept || margin >= -1e-9, "line {candidate} (margin {margin}) kept");
        }
    }

    #[test]
    fn merge_sum_equals_the_envelope_of_the_brute_force_cross_sum(
        first in proptest::collection::vec((0.0..5.0f64, 0.0..5.0f64), 1..12),
        second in proptest::collection::vec((0.0..5.0f64, 0.0..5.0f64), 1..12),
        probes in proptest::collection::vec(0.0..=1.0f64, 2..10),
    ) {
        let envelope = |raw: &[(f64, f64)], offset: usize| {
            ValueFunction::new((raw.iter().enumerate())
                .map(|(i, &(h, c))| AlphaVector::new([h, c], offset + i))
                .collect())
        };
        let (first, second) = (envelope(&first, 0), envelope(&second, 100));
        let merged = first.merge_sum(&second);
        prop_assert!(merged.len() < first.len() + second.len());
        let cross_sum = (first.vectors().iter())
            .flat_map(|a| second.vectors().iter().map(move |b| {
                AlphaVector::new([a.values[0] + b.values[0], a.values[1] + b.values[1]], a.action)
            }))
            .collect();
        let brute_force = ValueFunction::new(cross_sum);
        prop_assert_eq!(merged.vectors(), brute_force.vectors());
        for &b in &probes {
            prop_assert!((merged.evaluate(b) - brute_force.evaluate(b)).abs() <= 1e-12);
        }
    }

    #[test]
    fn solver_backups_satisfy_the_bellman_recursion_on_random_2_state_models(
        transition_rows in proptest::collection::vec(
            proptest::collection::vec(0.05..1.0f64, 2..3), 4..5),
        observation_weights in proptest::collection::vec(0.05..1.0f64, 22..23),
        observations in 2usize..12,
        costs in proptest::collection::vec(0.0..3.0f64, 4..5),
        discount in 0.5..0.95f64,
        probes in proptest::collection::vec(0.0..=1.0f64, 8..9),
    ) {
        // Belief-update/solver consistency: every exact dynamic-programming
        // backup of the incremental-pruning solver, horizons 1 to 6, equals
        // the Bellman operator computed independently through a scalar Bayes
        // step on b = P[C]:
        //   V_{k+1}(b) = min_a [ c_a(b) + γ Σ_o Pr(o | b, a) V_k(τ(b, a, o)) ]
        let normalize = |row: &[f64]| -> Vec<f64> {
            let total: f64 = row.iter().sum();
            row.iter().map(|v| v / total).collect()
        };
        let transition: Vec<Vec<Vec<f64>>> = (0..2)
            .map(|a| (0..2).map(|s| normalize(&transition_rows[a * 2 + s])).collect())
            .collect();
        let observation: Vec<Vec<f64>> = observation_weights
            .chunks(11)
            .map(|row| normalize(&row[..observations]))
            .collect();
        let cost: Vec<Vec<f64>> = (0..2)
            .map(|s| (0..2).map(|a| costs[s * 2 + a]).collect())
            .collect();
        let model = Pomdp::new(transition, observation, cost.clone(), discount).unwrap();
        let solver = IncrementalPruning::default();
        let mut value = ValueFunction::default();
        for horizon in 1..=6 {
            let backup = solver.backup(&model, &value).unwrap();
            for &b in probes.iter().chain(&[0.0, 1.0]) {
                let expected = common::bellman_step(&model, discount, &value, b);
                let computed = backup.evaluate(b);
                prop_assert!((computed - expected).abs() <= 1e-12 * expected.abs().max(1.0),
                    "horizon {horizon}, b = {b}: backup {computed} vs Bellman step {expected}");
            }
            value = backup;
        }
    }

    #[test]
    fn metrics_stay_in_valid_ranges(
        events in proptest::collection::vec((0usize..6, 0usize..3), 1..100),
        delays in proptest::collection::vec(0u64..500, 0..20),
    ) {
        let mut metrics = EvaluationMetrics::new();
        for (failed, recoveries) in &events {
            metrics.record_step(*failed, 2, *recoveries);
        }
        for delay in &delays {
            metrics.record_recovery_delay(*delay);
        }
        let report = metrics.report();
        prop_assert!((0.0..=1.0).contains(&report.availability));
        prop_assert!((0.0..=1.0).contains(&report.recovery_frequency));
        prop_assert!(report.time_to_recovery >= 0.0);
        prop_assert_eq!(report.steps, events.len() as u64);
    }

    #[test]
    fn partitioner_owns_every_key_exactly_once(
        shards in 1usize..12,
        keys in proptest::collection::vec(0u32..u32::MAX, 1..200),
    ) {
        // Total coverage: every key maps to exactly one shard in range,
        // and the mapping is a pure function of (key, shard count).
        let partitioner = KeyPartitioner::new(shards);
        for &key in &keys {
            let owner = partitioner.owner(key);
            prop_assert!(owner < shards, "key {key} owned by out-of-range shard {owner}");
            prop_assert_eq!(owner, partitioner.owner(key));
        }
    }

    #[test]
    fn partitioner_is_stable_under_shard_count_preserving_reconfiguration(
        shards in 1usize..12,
        keys in proptest::collection::vec(0u32..u32::MAX, 1..200),
    ) {
        // Routing depends only on the shard count: JOIN/EVICT/recovery
        // inside a shard (modelled by `reconfigured()`) never remaps keys.
        let before = KeyPartitioner::new(shards);
        let after = before.reconfigured();
        for &key in &keys {
            prop_assert_eq!(before.owner(key), after.owner(key));
        }
    }

    #[test]
    fn partitioner_assignment_is_balanced(shards in 1usize..64) {
        // Balance: the owned hash ranges are contiguous, cover the whole
        // 2^64 space, and differ in size by at most one point — so the
        // max/min owned-range ratio is bounded (well under 2 for any
        // realistic shard count).
        let partitioner = KeyPartitioner::new(shards);
        let ranges: Vec<u128> = (0..shards).map(|s| partitioner.owned_range(s)).collect();
        let total: u128 = ranges.iter().sum();
        prop_assert_eq!(total, 1u128 << 64);
        let min = *ranges.iter().min().unwrap();
        let max = *ranges.iter().max().unwrap();
        prop_assert!(max - min <= 1, "ranges differ by {} points", max - min);
        prop_assert!(max as f64 / min as f64 <= 1.0 + 1e-15);
    }
}

/// A line's value at belief `b`.
fn line_at(line: &AlphaVector, b: f64) -> f64 {
    line.values[0] * (1.0 - b) + line.values[1] * b
}

/// The lines no other one is below at both ends (the first of identical
/// ones), with `without` left out. A line that one of these dominates adds
/// no constraint to a witness LP that one of these does not already add.
fn pareto_front(lines: &[AlphaVector], without: Option<usize>) -> Vec<usize> {
    let mut front: Vec<usize> = (0..lines.len()).filter(|&i| Some(i) != without).collect();
    front.sort_by(|&i, &j| {
        let ([i0, i1], [j0, j1]) = (lines[i].values, lines[j].values);
        i0.total_cmp(&j0).then(i1.total_cmp(&j1)).then(i.cmp(&j))
    });
    let mut lowest = f64::INFINITY;
    front.retain(|&i| {
        let below = lines[i].values[1] < lowest;
        lowest = lowest.min(lines[i].values[1]);
        below
    });
    front
}

/// The witness LP of incremental pruning over two-state vectors: the largest
/// margin δ with `b·(α_j − α_c) ≥ δ` for every line `j` of `others` but the
/// candidate, `b₀ + b₁ = 1` and `b ≥ 0`. δ = δ⁺ − δ⁻, with δ⁺ capped one
/// above the largest difference (inactive at the optimum; it keeps
/// degenerate pivoting bounded).
fn witness_lp_margin(lines: &[AlphaVector], others: &[usize], candidate: usize) -> f64 {
    let [c0, c1] = lines[candidate].values;
    let differences: Vec<[f64; 2]> = (others.iter().filter(|&&j| j != candidate))
        .map(|&j| [lines[j].values[0] - c0, lines[j].values[1] - c1])
        .collect();
    let cap = differences.iter().flatten().fold(0.0f64, |a, &d| a.max(d)) + 1.0;
    let mut lp = LinearProgram::new(4, vec![0.0, 0.0, -1.0, 1.0]).unwrap();
    lp.add_constraint(vec![1.0, 1.0, 0.0, 0.0], Comparison::Equal, 1.0)
        .unwrap();
    lp.add_constraint(vec![0.0, 0.0, 1.0, 0.0], Comparison::LessEqual, cap)
        .unwrap();
    for [d0, d1] in differences {
        lp.add_constraint(vec![d0, d1, -1.0, 1.0], Comparison::GreaterEqual, 0.0)
            .unwrap();
    }
    let solution = lp.solve().unwrap();
    solution.values[2] - solution.values[3]
}

// ---------------------------------------------------------------------------
// Wire-codec round trips: every `Message`/`ControlMessage` variant survives
// encode → decode byte-identically, including large batches and state
// transfers (PR-6 satellite).
// ---------------------------------------------------------------------------

mod wire_roundtrip {
    use proptest::prelude::*;
    use serde::{Deserialize, Serialize, Value};
    use tolerance::consensus::minbft::{
        ByzantineMode, ControlMessage, Message, Operation, Request,
    };
    use tolerance::consensus::wire::{
        decode_frame_body, decode_message, decode_value_bytes, encode_frame, encode_message,
        encode_value_bytes, frame_body_len, FrameBuffer, WireError, FRAME_HEADER_LEN,
    };
    use tolerance::consensus::NodeId;

    /// A tiny deterministic value stream (splitmix64) so one `u64` seed
    /// expands into arbitrarily many field values.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn id(&mut self) -> NodeId {
            (self.next() % 64) as NodeId
        }

        fn digest(&mut self) -> tolerance::consensus::crypto::Digest {
            tolerance::consensus::crypto::Digest(self.next())
        }

        fn ui(&mut self) -> tolerance::consensus::usig::UniqueIdentifier {
            tolerance::consensus::usig::UniqueIdentifier {
                replica: self.id(),
                counter: self.next(),
                signature: tolerance::consensus::crypto::Signature {
                    signer: self.id(),
                    tag: self.next(),
                },
            }
        }

        fn operation(&mut self) -> Operation {
            match self.next() % 7 {
                0 => Operation::Read,
                1 => Operation::Write(self.next()),
                2 => Operation::Put {
                    key: self.next() as u32,
                    value: self.next(),
                },
                3 => Operation::Get {
                    key: self.next() as u32,
                },
                4 => Operation::TxReserve {
                    tx: self.next(),
                    key: self.next() as u32,
                    value: self.next(),
                },
                5 => Operation::TxCommit {
                    tx: self.next(),
                    key: self.next() as u32,
                },
                _ => Operation::TxAbort {
                    tx: self.next(),
                    key: self.next() as u32,
                },
            }
        }

        fn request(&mut self) -> Request {
            Request {
                client: self.id(),
                id: self.next(),
                operation: self.operation(),
            }
        }

        fn batch(&mut self, len: usize) -> Vec<Request> {
            (0..len).map(|_| self.request()).collect()
        }
    }

    /// Builds one message of the selected variant; `size` scales the
    /// variable-length payloads (batches, transferred state) so large
    /// instances are exercised too.
    fn build_message(variant: usize, seed: u64, size: usize) -> Message {
        let mut s = Stream(seed);
        match variant {
            0 => Message::Request(s.request()),
            1 => Message::Prepare {
                view: s.next(),
                sequence: s.next(),
                requests: s.batch(size),
                ui: s.ui(),
            },
            2 => Message::Commit {
                view: s.next(),
                sequence: s.next(),
                batch_digest: s.digest(),
                ui: s.ui(),
            },
            3 => Message::Reply {
                request_id: s.next(),
                value: s.next(),
                sequence: s.next(),
            },
            4 => Message::Checkpoint {
                sequence: s.next(),
                log_len: s.next(),
                state_digest: s.digest(),
            },
            5 => Message::ViewChange {
                epoch: s.next(),
                new_view: s.next(),
                high_sequence: s.next(),
                stable_sequence: s.next(),
                prepared: (0..size.min(16))
                    .map(|_| (s.next(), s.next(), s.batch(size / 4)))
                    .collect(),
            },
            6 => Message::NewView {
                epoch: s.next(),
                view: s.next(),
                membership: (0..1 + size % 13).map(|_| s.id()).collect(),
                next_sequence: s.next(),
            },
            7 => Message::StateRequest { epoch: s.next() },
            8 => Message::StateTransfer {
                epoch: s.next(),
                value: s.next(),
                kv: (0..size).map(|_| (s.next() as u32, s.next())).collect(),
                staged: (0..size / 2)
                    .map(|_| (s.next(), s.next() as u32, s.next()))
                    .collect(),
                log_start: s.next(),
                last_executed: s.next(),
                log_chain: s.digest(),
                stable_sequence: s.next(),
                executed: (0..size).map(|_| s.digest()).collect(),
                view: s.next(),
                membership: (0..1 + size % 9).map(|_| s.id()).collect(),
                replies: (0..size.min(32))
                    .map(|_| (s.id(), s.next(), s.next(), s.next()))
                    .collect(),
                prepared: (0..size.min(8))
                    .map(|_| (s.next(), s.next(), s.batch(size / 8)))
                    .collect(),
                chain_base: s.digest(),
                ui_high: (0..size.min(7)).map(|_| (s.id(), s.next())).collect(),
            },
            9 => Message::UiResendRequest {
                from_counter: s.next(),
            },
            _ => Message::Control(match seed % 3 {
                0 => ControlMessage::Recover,
                1 => ControlMessage::Reconfigure {
                    epoch: s.next(),
                    membership: (0..1 + size % 11).map(|_| s.id()).collect(),
                    frontier: s.next(),
                },
                _ => ControlMessage::Compromise {
                    mode: match seed % 3 {
                        0 => ByzantineMode::Correct,
                        1 => ByzantineMode::Silent,
                        _ => ByzantineMode::Arbitrary,
                    },
                },
            }),
        }
    }

    type Frame = (NodeId, NodeId, Message);

    /// One frame of every variant, in a seed-dependent rotation.
    fn frame_of_every_variant(seed: u64, size: usize) -> Vec<Vec<u8>> {
        (0..11)
            .map(|i| {
                let variant = (i + seed as usize) % 11;
                let message = build_message(variant, seed ^ i as u64, size);
                encode_frame(i as NodeId, variant as NodeId, &message)
            })
            .collect()
    }

    /// Feeds `stream` to a [`FrameBuffer`] in reads of the given sizes
    /// (cycled); returns the frames it delivered and the errors it reported
    /// (the first error ends the stream, as it ends a connection).
    fn split(stream: &[u8], reads: &[usize]) -> (Vec<Frame>, usize) {
        let mut buffer = FrameBuffer::new();
        let mut delivered = Vec::new();
        let mut rest = stream;
        for &size in reads.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (mut piece, tail) = rest.split_at(size.min(rest.len()));
            rest = tail;
            while !piece.is_empty() {
                buffer.read_from(&mut piece).expect("slices never fail");
                loop {
                    match buffer.next_frame() {
                        Ok(Some(frame)) => delivered.push(frame),
                        Ok(None) => break,
                        Err(_) => return (delivered, 1),
                    }
                }
            }
        }
        (delivered, 0)
    }

    /// The reference path's verdict on a payload: the `Value` parser, then
    /// the derived `from_value`. [`decode_message`] must agree on every input.
    fn reference(bytes: &[u8]) -> Result<Message, WireError> {
        Message::from_value(&decode_value_bytes(bytes)?, "message")
            .map_err(|e| WireError::Malformed { context: e.context })
    }

    /// Calls `visit` with a mutable view of every node of `value`, one call
    /// per node (parents before children), each on a fresh copy of the tree;
    /// collects the trees `visit` changed.
    fn mutate_each_node(value: &Value, visit: &dyn Fn(&mut Value) -> bool) -> Vec<Value> {
        fn node_at<'a>(value: &'a mut Value, index: &mut usize) -> Option<&'a mut Value> {
            if *index == 0 {
                return Some(value);
            }
            *index -= 1;
            match value {
                Value::Array(items) => items.iter_mut().find_map(|v| node_at(v, index)),
                Value::Object(entries) => entries.iter_mut().find_map(|(_, v)| node_at(v, index)),
                _ => None,
            }
        }
        let mut mutants = Vec::new();
        for target in 0usize.. {
            let mut copy = value.clone();
            let mut index = target;
            let Some(node) = node_at(&mut copy, &mut index) else {
                return mutants;
            };
            if visit(node) {
                mutants.push(copy);
            }
        }
        mutants
    }

    /// Every variant (all three control commands), small but with every
    /// collection populated.
    fn corpus_messages() -> Vec<Message> {
        (0..10)
            .map(|variant| build_message(variant, 7, 4))
            .chain((0..3).map(|seed| build_message(10, seed, 4)))
            .collect()
    }

    /// The hostile-wire corpus: what an attacker (or a bad cable) can do to
    /// a well-formed payload. On every member the direct decoder's verdict —
    /// the message or the exact error — must be the reference path's.
    #[test]
    fn hostile_wire_corpus_gets_the_reference_verdict() {
        let messages = corpus_messages();
        let payloads: Vec<Vec<u8>> = messages.iter().map(encode_message).collect();
        // Tree-level edits no canonical encoder emits: in every object a
        // reordered key pair, an unknown key, a duplicated key (the
        // first occurrence wins); in every integer position one above
        // `u32::MAX`, which a `NodeId` field must refuse.
        let edits: [&dyn Fn(&mut Value) -> bool; 4] = [
            &|node| match node {
                Value::Object(entries) if entries.len() > 1 => {
                    entries.swap(0, 1);
                    true
                }
                _ => false,
            },
            &|node| match node {
                Value::Object(entries) => {
                    entries.insert(0, ("zz_unknown".into(), Value::U64(1)));
                    true
                }
                _ => false,
            },
            &|node| match node {
                Value::Object(entries) if !entries.is_empty() => {
                    entries.push((entries[0].0.clone(), Value::Null));
                    true
                }
                _ => false,
            },
            &|node| match node {
                Value::U64(v) => {
                    *v = u64::from(u32::MAX) + 1;
                    true
                }
                _ => false,
            },
        ];
        let mut corpus: Vec<Vec<u8>> = Vec::new();
        for (message, payload) in messages.iter().zip(&payloads) {
            assert_eq!(decode_message(payload).as_ref(), Ok(message));
            // Every bit of every byte, every truncation, a trailing byte.
            for at in 0..payload.len() {
                for bit in 0..8 {
                    let mut flipped = payload.clone();
                    flipped[at] ^= 1 << bit;
                    corpus.push(flipped);
                }
                corpus.push(payload[..at].to_vec());
            }
            corpus.push([payload.as_slice(), &[0]].concat());
            // A foreign frame spliced in at every 5th offset, and appended.
            for foreign in &payloads {
                for at in (0..payload.len()).step_by(5) {
                    let tail = &foreign[at.min(foreign.len())..];
                    corpus.push([&payload[..at], tail].concat());
                }
                corpus.push([payload.as_slice(), foreign].concat());
            }
            let tree = message.to_value();
            for edit in edits {
                corpus.extend(mutate_each_node(&tree, edit).iter().map(encode_value_bytes));
            }
        }
        // What those edits do to a REQUEST: a key edit in the struct's object
        // leaves it the same message (in a variant's single-entry object it
        // is an error), the oversized `client` is refused by name.
        let request = messages[0].to_value();
        for edit in &edits[..3] {
            let verdicts: Vec<_> = mutate_each_node(&request, edit)
                .iter()
                .map(|mutant| decode_message(&encode_value_bytes(mutant)))
                .collect();
            assert!(verdicts.contains(&Ok(messages[0].clone())));
            assert!(verdicts.iter().flatten().all(|m| *m == messages[0]));
        }
        let oversized = &mutate_each_node(&request, edits[3])[0];
        assert_eq!(
            decode_message(&encode_value_bytes(oversized)),
            Err(WireError::Malformed {
                context: "Request.client"
            })
        );
        // A canonical PREPARE whose `requests` count no frame could back.
        let prepare = &payloads[1];
        let key = b"requests";
        let at = prepare
            .windows(key.len())
            .position(|window| window == key)
            .expect("PREPARE carries a `requests` key")
            + key.len();
        let mut bomb = prepare.clone();
        assert_eq!(bomb[at], 6, "the array tag follows the key");
        bomb[at + 1..at + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_message(&bomb), Err(WireError::Truncated));
        corpus.push(bomb);

        let mut accepted = 0;
        for hostile in &corpus {
            let verdict = decode_message(hostile);
            assert_eq!(verdict, reference(hostile), "payload {hostile:02x?}");
            accepted += usize::from(verdict.is_ok());
        }
        // The corpus is not all rejections: reordered, padded and duplicated
        // keys and most payload bit-flips still decode.
        assert!(
            accepted > corpus.len() / 10,
            "{accepted} of {}",
            corpus.len()
        );
    }

    const GOLDEN_FRAMES: &str = "wire-frames.json";

    /// One `"variant": "hex of the whole frame"` line per variant of
    /// `build_message(variant, 0, 4)`, sent from node 3 to client 10 001.
    fn render_golden_frames() -> String {
        const NAMES: [&str; 11] = [
            "request",
            "prepare",
            "commit",
            "reply",
            "checkpoint",
            "view_change",
            "new_view",
            "state_request",
            "state_transfer",
            "ui_resend_request",
            "control",
        ];
        let lines: Vec<String> = NAMES
            .iter()
            .enumerate()
            .map(|(variant, name)| {
                let frame = encode_frame(3, 10_001, &build_message(variant, 0, 4));
                let hex: String = frame.iter().map(|byte| format!("{byte:02x}")).collect();
                format!("  \"{name}\": \"{hex}\"")
            })
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// The format is an interface between separately built `minbft-node`
    /// processes: the committed frames were rendered by the `Value` path of
    /// the commit before the direct codec existed, and must never move.
    #[test]
    fn golden_frames_match_the_committed_fixture() {
        let expected = crate::common::read_fixture(GOLDEN_FRAMES);
        serde_json::parse_value(&expected).expect("the fixture is well-formed JSON");
        for (now, committed) in render_golden_frames().lines().zip(expected.lines()) {
            assert_eq!(now, committed, "the wire format moved");
        }
        assert_eq!(render_golden_frames().len(), expected.len());
    }

    #[test]
    #[ignore = "rewrites tests/fixtures/wire-frames.json from the current tree"]
    fn regenerate_golden_frames() {
        std::fs::write(
            crate::common::fixture_path(GOLDEN_FRAMES),
            render_golden_frames(),
        )
        .expect("the fixture is writable");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The direct codec against the `Value` path, both directions.
        #[test]
        fn direct_codec_equals_the_value_path(
            variant in 0usize..11,
            seed in 0u64..u64::MAX,
            size in 0usize..4,
        ) {
            let message = build_message(variant, seed, [0, 1, 16, 200][size]);
            let bytes = encode_message(&message);
            prop_assert_eq!(&bytes, &encode_value_bytes(&message.to_value()));
            prop_assert_eq!(decode_message(&bytes), reference(&bytes));
            prop_assert_eq!(decode_message(&bytes), Ok(message));
        }

        #[test]
        fn frame_splitting_is_independent_of_read_boundaries(
            seed in 0u64..u64::MAX,
            size in 0usize..48,
            reads in proptest::collection::vec(1usize..400, 1..12),
        ) {
            let frames = frame_of_every_variant(seed, size);
            let one_at_a_time: Vec<Frame> = frames
                .iter()
                .map(|frame| decode_frame_body(&frame[4..]).expect("well-formed frame"))
                .collect();
            let (delivered, errors) = split(&frames.concat(), &reads);
            prop_assert_eq!(errors, 0);
            prop_assert_eq!(delivered, one_at_a_time);
        }

        #[test]
        fn a_corrupted_frame_ends_the_stream_exactly_there(
            seed in 0u64..u64::MAX,
            size in 0usize..48,
            reads in proptest::collection::vec(1usize..400, 1..12),
            victim in 0usize..11,
            corruption in 0usize..2,
        ) {
            let mut frames = frame_of_every_variant(seed, size);
            let before: Vec<Frame> = frames[..victim]
                .iter()
                .map(|frame| decode_frame_body(&frame[4..]).expect("well-formed frame"))
                .collect();
            if corruption == 0 {
                // A length that cannot cover the from/to header.
                frames[victim][..4].copy_from_slice(&7u32.to_le_bytes());
            } else {
                // An unknown value tag where the payload starts.
                frames[victim][FRAME_HEADER_LEN] = 0xff;
            }
            let (delivered, errors) = split(&frames.concat(), &reads);
            prop_assert_eq!(errors, 1);
            prop_assert_eq!(delivered, before);
        }

        #[test]
        fn every_message_variant_round_trips_byte_identically(
            variant in 0usize..11,
            seed in 0u64..u64::MAX,
            size in 0usize..48,
        ) {
            let message = build_message(variant, seed, size);
            let bytes = encode_message(&message);
            let decoded = decode_message(&bytes).expect("well-formed encoding");
            prop_assert_eq!(&decoded, &message);
            // Byte-identical re-encoding: the codec is canonical.
            prop_assert_eq!(encode_message(&decoded), bytes);
        }

        #[test]
        fn large_batches_and_state_transfers_round_trip(
            seed in 0u64..u64::MAX,
            size in 200usize..500,
        ) {
            // The two variants with unbounded payloads, at batch sizes far
            // beyond what the protocol defaults produce.
            for variant in [1usize, 8] {
                let message = build_message(variant, seed, size);
                let bytes = encode_message(&message);
                let decoded = decode_message(&bytes).expect("well-formed encoding");
                prop_assert_eq!(&decoded, &message);
                prop_assert_eq!(encode_message(&decoded), bytes);
            }
        }

        #[test]
        fn frames_round_trip_with_headers(
            variant in 0usize..10,
            seed in 0u64..u64::MAX,
            size in 0usize..32,
            from in 0u32..100_000,
            to in 0u32..100_000,
        ) {
            let message = build_message(variant, seed, size);
            let frame = encode_frame(from, to, &message);
            let mut prefix = [0u8; 4];
            prefix.copy_from_slice(&frame[..4]);
            let body_len = frame_body_len(prefix).expect("valid prefix");
            prop_assert_eq!(body_len, frame.len() - 4);
            prop_assert_eq!(frame.len() >= FRAME_HEADER_LEN, true);
            let (decoded_from, decoded_to, decoded) =
                decode_frame_body(&frame[4..]).expect("well-formed frame");
            prop_assert_eq!(decoded_from, from);
            prop_assert_eq!(decoded_to, to);
            prop_assert_eq!(decoded, message);
        }

        #[test]
        fn truncated_encodings_never_panic(
            variant in 0usize..10,
            seed in 0u64..u64::MAX,
            size in 0usize..24,
            cut in 0.0..1.0f64,
        ) {
            // Any proper prefix of a valid encoding errors cleanly.
            let bytes = encode_message(&build_message(variant, seed, size));
            let cut_at = ((bytes.len() as f64) * cut) as usize;
            if cut_at < bytes.len() {
                prop_assert!(decode_message(&bytes[..cut_at]).is_err());
            }
        }

        #[test]
        fn corrupted_encodings_never_panic(
            variant in 0usize..10,
            seed in 0u64..u64::MAX,
            size in 0usize..24,
            position in 0.0..1.0f64,
            flip in 1u8..=255,
        ) {
            // Single-byte corruption anywhere: decode may fail or return a
            // different well-formed message — it must never panic, and a
            // successful decode must re-encode canonically.
            let mut bytes = encode_message(&build_message(variant, seed, size));
            let index = ((bytes.len() as f64) * position) as usize % bytes.len().max(1);
            if !bytes.is_empty() {
                bytes[index] ^= flip;
                if let Ok(decoded) = decode_message(&bytes) {
                    let reencoded = encode_message(&decoded);
                    prop_assert!(decode_message(&reencoded).is_ok());
                }
            }
        }
    }
}

mod adversary_usig {
    //! USIG monotonicity under a protocol-aware equivocating leader: the
    //! trusted counter is exactly what turns equivocation from a safety
    //! attack into a liveness nuisance, so these properties drive the
    //! view-0 leader with [`AttackerKind::EquivocatingLeader`] and check
    //! the trusted-component guarantees on every replica afterwards.

    use proptest::prelude::*;
    use std::collections::HashMap;
    use tolerance::consensus::crypto::Digest;
    use tolerance::consensus::minbft::Operation;
    use tolerance::consensus::{AttackerKind, MinBftCluster, MinBftConfig, NetworkConfig, NodeId};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn usig_counters_stay_monotone_under_an_equivocating_leader(
            seed in 0u64..1_000_000,
            requests in 1usize..10,
        ) {
            let mut cluster = MinBftCluster::new(MinBftConfig {
                initial_replicas: 5,
                seed,
                network: NetworkConfig {
                    latency: 0.002,
                    jitter: 0.001,
                    loss_rate: 0.0,
                },
                ..MinBftConfig::default()
            });
            let client = cluster.add_client();
            cluster.set_attacker(0, Some(AttackerKind::EquivocatingLeader));
            for i in 0..requests {
                if cluster.has_outstanding_request(client) {
                    break;
                }
                cluster.submit(client, Operation::Write(i as u64 + 1));
                cluster.run_until_quiet(cluster.now() + 20.0);
            }

            let members: Vec<NodeId> = cluster.membership().to_vec();
            // FIFO cursors never outrun the sender's trusted counter: a
            // counter is assigned once by the sender's USIG, so no receiver
            // can have consumed more than the sender ever signed — not even
            // from the attacker, whose equivocation spends *distinct*
            // counters on the conflicting messages.
            for &receiver in &members {
                for &sender in &members {
                    if sender == receiver {
                        continue;
                    }
                    let signed = cluster.usig_last_counter(sender).unwrap_or(0);
                    let consumed = cluster.ui_cursor(receiver, sender);
                    prop_assert!(
                        consumed <= signed,
                        "replica {receiver} consumed counter {consumed} from \
                         {sender}, which only signed up to {signed}"
                    );
                }
            }

            // Honest replicas never bind one (view, sequence) to two
            // digests: the FIFO-consecutive acceptance of the counter
            // stream forces every honest replica onto the same one of the
            // attacker's conflicting PREPAREs.
            let mut bound: HashMap<(u64, u64), (NodeId, Digest)> = HashMap::new();
            for &replica in members.iter().filter(|&&id| id != 0) {
                for (sequence, view, digest) in cluster.prepared_entries(replica) {
                    match bound.get(&(view, sequence)) {
                        Some(&(other, previous)) => prop_assert!(
                            previous == digest,
                            "replicas {other} and {replica} prepared different \
                             digests at (view {view}, seq {sequence})"
                        ),
                        None => {
                            bound.insert((view, sequence), (replica, digest));
                        }
                    }
                }
            }

            // One digest per committed sequence, fleet-wide.
            let mut committed: HashMap<u64, Digest> = HashMap::new();
            for record in cluster.commit_trace() {
                match committed.get(&record.sequence) {
                    Some(&previous) => prop_assert!(
                        previous == record.digest,
                        "sequence {} committed with two digests",
                        record.sequence
                    ),
                    None => {
                        committed.insert(record.sequence, record.digest);
                    }
                }
            }
            prop_assert!(cluster.logs_are_consistent());
        }
    }
}

mod autotune_metrics {
    //! The latency histogram feeding the data-plane autotune loop:
    //! quantiles behave like quantiles, and histogram merging is recording
    //! the union.

    use proptest::prelude::*;
    use tolerance::consensus::metrics::LatencyHistogram;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn histogram_quantiles_are_monotone_and_bounded_by_the_max(
            latencies in proptest::collection::vec(1e-7..10.0f64, 1..200),
            qs in proptest::collection::vec(0.0..=1.0f64, 2..8),
        ) {
            let mut histogram = LatencyHistogram::new();
            let mut max = 0.0f64;
            for &latency in &latencies {
                histogram.record(latency);
                max = max.max(latency);
            }
            prop_assert_eq!(histogram.count(), latencies.len() as u64);
            let mut sorted = qs.clone();
            sorted.sort_by(f64::total_cmp);
            let values: Vec<f64> = sorted.iter().map(|&q| histogram.quantile(q)).collect();
            for pair in values.windows(2) {
                prop_assert!(
                    pair[0] <= pair[1] + 1e-12,
                    "quantile not monotone: {} then {}",
                    pair[0],
                    pair[1]
                );
            }
            for &value in &values {
                prop_assert!(
                    value <= max + 1e-12,
                    "quantile {value} exceeds recorded max {max}"
                );
            }
            // q = 1.0 is exactly the maximum (the side-channel clamp).
            prop_assert!((histogram.quantile(1.0) - max).abs() < 1e-12);
        }

        #[test]
        fn merging_two_histograms_equals_recording_the_union(
            left in proptest::collection::vec(1e-7..5.0f64, 0..100),
            right in proptest::collection::vec(1e-7..5.0f64, 0..100),
        ) {
            let mut a = LatencyHistogram::new();
            for &latency in &left {
                a.record(latency);
            }
            let mut b = LatencyHistogram::new();
            for &latency in &right {
                b.record(latency);
            }
            let mut union = LatencyHistogram::new();
            for &latency in left.iter().chain(&right) {
                union.record(latency);
            }
            a.merge(&b);
            prop_assert_eq!(a.count(), union.count());
            prop_assert!((a.sum() - union.sum()).abs() < 1e-9);
            prop_assert!((a.max() - union.max()).abs() < 1e-12);
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                prop_assert!(
                    (a.quantile(q) - union.quantile(q)).abs() < 1e-12,
                    "quantile({q}) diverges after merge"
                );
            }
        }
    }
}

mod autotune_clamp {
    //! The online-clamp regression property (PR-9 satellite): whatever
    //! observation sequence drives the AIMD laws — calm growth to the
    //! batch cap, overload collapses, idle holds, watermark crossings —
    //! the actuated `(batch_size, batch_delay)` pair always passes
    //! [`MinBftConfig::validate`] with the matching cost model. The
    //! config itself is drawn adversarially (unordered bounds, silly
    //! factors) to cover sanitization too.

    use proptest::prelude::*;
    use tolerance::core::controlplane::autotune::{
        AutotuneConfig, AutotuneController, AutotuneObservation,
    };

    fn arbitrary_config() -> impl Strategy<Value = AutotuneConfig> {
        (
            (1e-3..1.0f64, 0usize..512, 0usize..512, 1usize..16),
            (0usize..128, 0usize..128, 1usize..8),
            (0.0..1.5f64, 0u64..512, 0u64..512),
            (0.0..0.05f64, 0.0..0.01f64, 0.0..0.01f64),
        )
            .prop_map(
                |(
                    (p99_target, min_batch, max_batch, batch_step),
                    (min_concurrency, max_concurrency, concurrency_step),
                    (decrease_factor, delay_watermark, shed_watermark),
                    (base_batch_delay, processing_time, signature_time),
                )| AutotuneConfig {
                    p99_target,
                    initial_batch: min_batch,
                    min_batch,
                    max_batch,
                    batch_step,
                    initial_concurrency: min_concurrency,
                    min_concurrency,
                    max_concurrency,
                    concurrency_step,
                    decrease_factor,
                    delay_watermark,
                    shed_watermark,
                    base_batch_delay,
                    processing_time,
                    signature_time,
                    ..AutotuneConfig::default()
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn aimd_never_actuates_a_pair_validate_rejects(
            config in arbitrary_config(),
            windows in proptest::collection::vec(
                (0u64..2_000, 0.0..2.0f64, 0u64..1_024, 0u64..64),
                1..80,
            ),
        ) {
            let mut controller = AutotuneController::new(&config);
            prop_assert!(controller.actuation_validates(), "initial knobs invalid");
            for &(completed, p99, queue_depth, suppressed) in &windows {
                let decision = controller.observe(AutotuneObservation {
                    completed,
                    p99,
                    queue_depth,
                    suppressed,
                });
                prop_assert!(
                    controller.actuation_validates(),
                    "reachable state actuates an invalid pair: {decision:?}"
                );
                prop_assert!(decision.batch_size >= 1);
                prop_assert!(decision.concurrency >= 1);
                prop_assert!(decision.batch_delay.is_finite() && decision.batch_delay >= 0.0);
            }
        }
    }
}

mod fleet_streams {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;
    use tolerance::consensus::sharded::shard_seed;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        #[test]
        fn shard_seed_split_streams_are_pairwise_non_colliding(
            seed in 0u64..u64::MAX,
            shards in 2usize..=512,
        ) {
            // The fleet engine gives every shard its own RNG stream via the
            // splitmix split of the fleet seed: per-shard fault schedules and
            // trace workloads must never share a stream, or two shards would
            // replay correlated chaos. Check both the split seeds and a
            // fingerprint of each stream's first 10k draws.
            let mut seeds: HashSet<u64> = HashSet::with_capacity(shards);
            let mut fingerprints: HashSet<u64> = HashSet::with_capacity(shards);
            for shard in 0..shards {
                let split = shard_seed(seed, shard);
                prop_assert!(
                    seeds.insert(split),
                    "fleet seed {seed:#x}: shard {shard} re-derived an earlier split seed"
                );
                let mut rng = StdRng::seed_from_u64(split);
                let mut fingerprint = 0u64;
                for _ in 0..10_000 {
                    fingerprint = fingerprint.rotate_left(7) ^ rng.random::<u64>();
                }
                prop_assert!(
                    fingerprints.insert(fingerprint),
                    "fleet seed {seed:#x}: shard {shard}'s first 10k draws \
                     collide with an earlier shard's stream"
                );
            }
        }
    }
}

mod counterexample_documents {
    //! The counterexample documents are read back by the derived
    //! `Deserialize` impls alone, so every event variant the generator can
    //! draw — and every float it can draw into one — must survive the JSON
    //! round trip exactly: a replayed schedule is the emitted schedule.

    use proptest::prelude::*;
    use tolerance::core::simnet::{
        FaultKind, InvariantKind, ScheduleConfig, ShardedCounterexample, ShardedFaultSchedule,
        ShardedScheduleConfig, Violation,
    };

    const EVERY_KIND: [FaultKind; 10] = [
        FaultKind::Partition,
        FaultKind::LossStorm,
        FaultKind::DelayStorm,
        FaultKind::CrashReplica,
        FaultKind::ByzantineFlip,
        FaultKind::IntrusionBurst,
        FaultKind::AdoptAttacker,
        FaultKind::AddReplica,
        FaultKind::EvictReplica,
        FaultKind::ClientBurst,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn generated_schedules_survive_the_json_round_trip_byte_identically(
            seed in 0u64..u64::MAX,
            intensity in 0.0f64..1.0,
            shards in 1usize..4,
        ) {
            let base = ScheduleConfig {
                intensity,
                enabled: EVERY_KIND.to_vec(),
                inject_double_commit_at: Some(5),
                ..ScheduleConfig::default()
            };
            let violation = Violation {
                kind: InvariantKind::Liveness,
                step: 7,
                detail: "synthetic \"quoted\"\n".into(),
            };

            let single = ShardedScheduleConfig::single_group(base.clone());
            let fleet = ShardedScheduleConfig { shards, base, ..ShardedScheduleConfig::default() };
            for (config, schedule) in [
                (single.clone(), ShardedFaultSchedule::single_group(seed, &single)),
                (fleet.clone(), ShardedFaultSchedule::generate(seed, &fleet)),
            ] {
                let document = ShardedCounterexample {
                    seed,
                    config,
                    schedule,
                    violation: violation.clone(),
                };
                let json = document.to_json().expect("serializes");
                let back = ShardedCounterexample::from_json(&json).expect("parses back");
                prop_assert_eq!(&back, &document);
                prop_assert_eq!(back.to_json().expect("serializes"), json);
            }
        }
    }
}

mod rollout_kernel {
    //! `RecoveryProblem::simulate_strategy` against a reference rollout that
    //! knows nothing of the node model's internals: Eq. 2 as its formula,
    //! `ObservationModel::{sample, probability}` for Eq. 3, the belief
    //! recursion of Appendix A written out, and `ThresholdStrategy::decide`.
    //! The two must agree on every bit of the `EpisodeOutcome` and leave the
    //! RNG in the same place, for models inside and outside Theorem 1; the
    //! node controller's fold of an alert-event batch must equal the
    //! recursion's prediction followed by one Bayes step per event; and the
    //! table `NodeModel` steps with must equal the formula entry by entry.

    use super::arbitrary_parameters;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use tolerance::core::node_model::{NodeAction, NodeModel, NodeParameters, NodeState};
    use tolerance::core::observation::ObservationModel;
    use tolerance::core::recovery::{
        EpisodeOutcome, RecoveryConfig, RecoveryProblem, ThresholdStrategy,
    };

    const STATES: [NodeState; 3] = [
        NodeState::Healthy,
        NodeState::Compromised,
        NodeState::Crashed,
    ];

    /// Eq. 2, from the formula.
    fn eq2(model: &NodeModel, state: NodeState, action: NodeAction, next: NodeState) -> f64 {
        model
            .parameters()
            .transition_probability(state, action, next)
    }

    /// The prediction half of the belief recursion: Eq. 2 over `{H, C}`,
    /// conditioned on not crashing; `None` when no mass survives.
    fn reference_prediction(model: &NodeModel, b: f64, action: NodeAction) -> Option<[f64; 2]> {
        let prior = [1.0 - b, b];
        let mut predicted = [0.0f64; 2];
        for (si, &state) in STATES[..2].iter().enumerate() {
            for (ni, &next) in STATES[..2].iter().enumerate() {
                predicted[ni] += prior[si] * eq2(model, state, action, next);
            }
        }
        let total = predicted[0] + predicted[1];
        if total <= 0.0 {
            return None;
        }
        predicted[0] /= total;
        predicted[1] /= total;
        Some(predicted)
    }

    /// The belief recursion over the alert events of one time-step: the
    /// prediction once, then one Bayes step per event; an event with zero
    /// likelihood in both states is skipped.
    fn reference_event_fold(
        model: &NodeModel,
        observations: &ObservationModel,
        belief: f64,
        action: NodeAction,
        events: &[u64],
    ) -> f64 {
        let b = belief.clamp(0.0, 1.0);
        let Some(mut predicted) = reference_prediction(model, b, action) else {
            return b;
        };
        for &alerts in events {
            let healthy = observations.probability(NodeState::Healthy, alerts) * predicted[0];
            let compromised =
                observations.probability(NodeState::Compromised, alerts) * predicted[1];
            let evidence = healthy + compromised;
            if evidence <= 0.0 {
                continue;
            }
            predicted = [healthy / evidence, compromised / evidence];
        }
        predicted[1]
    }

    fn reference_belief_update(
        model: &NodeModel,
        observations: &ObservationModel,
        belief: f64,
        action: NodeAction,
        alerts: u64,
    ) -> f64 {
        let b = belief.clamp(0.0, 1.0);
        let Some(predicted) = reference_prediction(model, b, action) else {
            return b;
        };
        let likelihood_h = observations.probability(NodeState::Healthy, alerts);
        let likelihood_c = observations.probability(NodeState::Compromised, alerts);
        let numerator = likelihood_c * predicted[1];
        let denominator = likelihood_h * predicted[0] + likelihood_c * predicted[1];
        if denominator <= 0.0 {
            predicted[1]
        } else {
            numerator / denominator
        }
    }

    fn reference_rollout(
        model: &NodeModel,
        observations: &ObservationModel,
        eta: f64,
        strategy: &ThresholdStrategy,
        horizon: u32,
        rng: &mut StdRng,
    ) -> EpisodeOutcome {
        let p_attack = model.parameters().p_attack;
        let mut state = if rng.random::<f64>() < p_attack {
            NodeState::Compromised
        } else {
            NodeState::Healthy
        };
        let mut belief = p_attack;
        let mut steps_since_recovery = 0u32;
        let mut previous_action = NodeAction::Wait;
        let mut total_cost = 0.0;
        let (mut recoveries, mut compromised_steps, mut steps) = (0u32, 0u32, 0u32);
        for _ in 0..horizon {
            if state == NodeState::Crashed {
                break;
            }
            steps += 1;
            let alerts = observations.sample(state, rng);
            belief = reference_belief_update(model, observations, belief, previous_action, alerts);
            let action = strategy.decide(belief, steps_since_recovery);
            total_cost += model.cost(state, action, eta);
            if state == NodeState::Compromised {
                compromised_steps += 1;
            }
            match action {
                NodeAction::Recover => {
                    recoveries += 1;
                    steps_since_recovery = 0;
                    belief = p_attack;
                }
                NodeAction::Wait => steps_since_recovery += 1,
            }
            let mut u = rng.random::<f64>();
            let mut sampled = NodeState::Crashed;
            for &next in &STATES {
                u -= eq2(model, state, action, next);
                if u <= 0.0 {
                    sampled = next;
                    break;
                }
            }
            state = sampled;
            previous_action = action;
        }
        EpisodeOutcome {
            average_cost: if steps == 0 {
                0.0
            } else {
                total_cost / steps as f64
            },
            recoveries,
            compromised_steps,
            steps,
        }
    }

    /// Runs `episodes` back-to-back episodes on both rollouts from one seed
    /// and compares them bit for bit, then the RNG position.
    fn assert_rollouts_agree(
        parameters: NodeParameters,
        observations: ObservationModel,
        eta: f64,
        thresholds: Vec<f64>,
        delta_r: Option<u32>,
        horizon: u32,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let model = NodeModel::new_unchecked(parameters, observations.clone());
        let problem = RecoveryProblem::new(model.clone(), RecoveryConfig { eta, delta_r })
            .expect("eta >= 1 and delta_r != Some(0)");
        let strategy = ThresholdStrategy::new(thresholds, delta_r).expect("thresholds in [0, 1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        for episode in 0..3 {
            let outcome = problem.simulate_strategy(&strategy, horizon, &mut rng);
            let reference = reference_rollout(
                &model,
                &observations,
                eta,
                &strategy,
                horizon,
                &mut reference_rng,
            );
            let bits = |outcome: &EpisodeOutcome| {
                (
                    outcome.average_cost.to_bits(),
                    outcome.recoveries,
                    outcome.compromised_steps,
                    outcome.steps,
                )
            };
            prop_assert!(
                bits(&outcome) == bits(&reference),
                "episode {episode} of {parameters:?}: {outcome:?} vs reference {reference:?}"
            );
        }
        prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
        Ok(())
    }

    fn assert_table_equals_formula(model: &NodeModel) -> Result<(), TestCaseError> {
        let mut entries = 0;
        for action in [NodeAction::Wait, NodeAction::Recover] {
            for state in STATES {
                for next in STATES {
                    let table = model.transition_probability(state, action, next);
                    let formula = eq2(model, state, action, next);
                    prop_assert!(
                        table.to_bits() == formula.to_bits(),
                        "{state:?} {action:?} {next:?}: table {table:?}, formula {formula:?}"
                    );
                    entries += 1;
                }
            }
        }
        prop_assert_eq!(entries, 18);
        Ok(())
    }

    fn delta_r_of(choice: usize) -> Option<u32> {
        [None, Some(1), Some(7)][choice]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_transition_table_equals_the_formula_on_all_18_entries(
            admissible in arbitrary_parameters(),
            probabilities in (0.0..=1.0f64, 0.0..=1.0f64, 0.0..=1.0f64, 0.0..=1.0f64),
        ) {
            let (p_attack, p_crash_healthy, p_crash_compromised, p_update) = probabilities;
            let anywhere = NodeParameters { p_attack, p_crash_healthy, p_crash_compromised, p_update };
            for parameters in [admissible, anywhere] {
                // Both constructors build the table; `new` only where
                // Theorem 1 holds.
                let unchecked = NodeModel::new_unchecked(parameters, ObservationModel::paper_default());
                let checked = NodeModel::new(parameters, ObservationModel::paper_default()).ok();
                for model in std::iter::once(unchecked).chain(checked) {
                    assert_table_equals_formula(&model)?;
                }
            }
        }

        #[test]
        fn simulate_strategy_equals_the_reference_rollout_over_the_admissible_range(
            parameters in arbitrary_parameters(),
            lambda in 0.0..0.9f64,
            eta in 1.0..4.0f64,
            thresholds in proptest::collection::vec(0.0..=1.0f64, 1..8),
            delta_r in 0usize..3,
            horizon in 0u32..150,
            seed in 0u64..u64::MAX,
        ) {
            let observations = ObservationModel::paper_default().degrade(lambda).unwrap();
            assert_rollouts_agree(
                parameters, observations, eta, thresholds, delta_r_of(delta_r), horizon, seed,
            )?;
        }

        #[test]
        fn simulate_strategy_equals_the_reference_rollout_outside_theorem1(
            probabilities in (0.0..=1.0f64, 0.0..=1.0f64, 0.0..=1.0f64, 0.0..=1.0f64),
            eta in 1.0..4.0f64,
            thresholds in proptest::collection::vec(0.0..=1.0f64, 1..8),
            delta_r in 0usize..3,
            horizon in 0u32..150,
            seed in 0u64..u64::MAX,
        ) {
            // The whole unit cube: assumptions A-C fail almost everywhere
            // (p_A + p_U > 1, p_C1 > p_C2), the rows stay stochastic.
            let (p_attack, p_crash_healthy, p_crash_compromised, p_update) = probabilities;
            let parameters = NodeParameters {
                p_attack,
                p_crash_healthy,
                p_crash_compromised,
                p_update,
            };
            // A reversed observation model on top (assumption E fails).
            let observations =
                ObservationModel::from_distributions(vec![0.1, 0.2, 0.7], vec![0.6, 0.3, 0.1])
                    .unwrap();
            assert_rollouts_agree(
                parameters, observations, eta, thresholds, delta_r_of(delta_r), horizon, seed,
            )?;
        }
    }

    #[test]
    fn simulate_strategy_equals_the_reference_rollout_at_the_edges() {
        let crash_heavy = NodeParameters {
            p_crash_healthy: 0.5,
            p_crash_compromised: 0.6,
            ..NodeParameters::default()
        };
        // Both crash probabilities one: the predicted mass over {H, C} is
        // zero and the belief update returns its prior.
        let certain_crash = NodeParameters {
            p_crash_healthy: 1.0,
            p_crash_compromised: 1.0,
            ..NodeParameters::default()
        };
        // A fully revealing model: the belief is exactly 0 or 1 after every
        // observation, so the thresholds are compared at their end points.
        let revealing =
            ObservationModel::from_distributions(vec![1.0, 0.0], vec![0.0, 1.0]).unwrap();
        let paper = NodeModel::new(NodeParameters::default(), ObservationModel::paper_default())
            .expect("the paper's model satisfies Theorem 1");
        assert_table_equals_formula(&paper).unwrap_or_else(|error| panic!("{error}"));
        for parameters in [NodeParameters::default(), crash_heavy, certain_crash] {
            for observations in [ObservationModel::paper_default(), revealing.clone()] {
                for delta_r in [None, Some(1), Some(7)] {
                    for horizon in [0, 1, 100] {
                        for seed in 0..8 {
                            assert_rollouts_agree(
                                parameters,
                                observations.clone(),
                                2.0,
                                vec![0.3, 0.9],
                                delta_r,
                                horizon,
                                seed,
                            )
                            .unwrap_or_else(|error| panic!("{error}"));
                        }
                    }
                }
                // Alert counts beyond the support have zero likelihood in
                // both states (the `denominator <= 0` guard), which no
                // rollout can draw. The node controller's event fold is the
                // same recursion over batches of 0, 1, 3 and 15 events.
                let model = NodeModel::new_unchecked(parameters, observations.clone());
                for action in [NodeAction::Wait, NodeAction::Recover] {
                    for alerts in [0, 1, 11, 99] {
                        let batch: Vec<u64> = (0..15u64)
                            .map(|i| if i % 3 == 0 { alerts } else { i * 5 % 12 })
                            .collect();
                        for belief in [0.0, 0.1, 0.5, 1.0] {
                            assert_eq!(
                                model.belief_update(belief, action, alerts).to_bits(),
                                reference_belief_update(
                                    &model,
                                    &observations,
                                    belief,
                                    action,
                                    alerts
                                )
                                .to_bits(),
                                "{parameters:?} {action:?} alerts {alerts} belief {belief}"
                            );
                            for events in [0, 1, 3, 15].map(|len| &batch[..len]) {
                                assert_eq!(
                                    model.belief_update_events(belief, action, events).to_bits(),
                                    reference_event_fold(
                                        &model,
                                        &observations,
                                        belief,
                                        action,
                                        events
                                    )
                                    .to_bits(),
                                    "{parameters:?} {action:?} events {events:?} belief {belief}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

mod lp_differential {
    //! `LinearProgram::solve` against exhaustion: the reference puts the
    //! program in standard form itself (rows scaled to unit ∞-norm, one slack
    //! per inequality), factorises every square choice of columns with
    //! `markov::linalg` and keeps the best non-negative basic solution. Rows
    //! span ten orders of magnitude, a third of the right-hand sides are
    //! exactly 0 (the degenerate ties of the occupation-measure and witness
    //! LPs), and the costs are non-negative, so no program is unbounded.

    use proptest::prelude::*;
    use tolerance::markov::linalg::Matrix;
    use tolerance::optim::simplex::{Comparison, LinearProgram};
    use tolerance::optim::OptimError;

    const SENSES: [Comparison; 3] = [
        Comparison::LessEqual,
        Comparison::GreaterEqual,
        Comparison::Equal,
    ];

    /// One generated row: five coefficients in [-1, 1] (the program uses the
    /// first `n`), the row's decimal exponent, its sense, its right-hand side
    /// in units of the row scale, and a draw that zeroes the latter.
    type RawRow = (Vec<f64>, f64, usize, f64, usize);

    struct Row {
        coefficients: Vec<f64>,
        comparison: Comparison,
        rhs: f64,
    }

    fn rows_of(raw: &[RawRow], n: usize) -> Vec<Row> {
        raw.iter()
            .map(|(coefficients, exponent, sense, rhs, zero)| {
                let scale = 10f64.powf(*exponent);
                Row {
                    // A coefficient drawn near 0 is a structural zero.
                    coefficients: coefficients[..n]
                        .iter()
                        .map(|&a| if a.abs() < 0.2 { 0.0 } else { a * scale })
                        .collect(),
                    comparison: SENSES[*sense],
                    rhs: if *zero == 0 { 0.0 } else { rhs * scale },
                }
            })
            .collect()
    }

    /// The least cost over every feasible basic solution: `Some(None)` when
    /// no basis is feasible, `None` when there is no basis at all (redundant
    /// rows; a polyhedron without a vertex decides nothing by exhaustion).
    fn best_vertex(cost: &[f64], rows: &[Row]) -> Option<Option<f64>> {
        let n = cost.len();
        let m = rows.len();
        let slacks = rows
            .iter()
            .filter(|row| row.comparison != Comparison::Equal)
            .count();
        let columns = n + slacks;
        let mut matrix = Matrix::zeros(m, columns);
        let mut rhs = vec![0.0; m];
        let mut slack = n;
        for (r, row) in rows.iter().enumerate() {
            let norm = row.coefficients.iter().fold(0.0f64, |a, v| a.max(v.abs()));
            let norm = if norm > 0.0 { norm } else { 1.0 };
            for (c, a) in row.coefficients.iter().enumerate() {
                matrix[(r, c)] = a / norm;
            }
            rhs[r] = row.rhs / norm;
            if row.comparison != Comparison::Equal {
                matrix[(r, slack)] = if row.comparison == Comparison::LessEqual {
                    1.0
                } else {
                    -1.0
                };
                slack += 1;
            }
        }
        let mut bases = 0usize;
        let mut best: Option<f64> = None;
        for mask in 0u32..1 << columns {
            if mask.count_ones() as usize != m {
                continue;
            }
            let chosen: Vec<usize> = (0..columns).filter(|c| mask & (1 << c) != 0).collect();
            let mut basis = Matrix::zeros(m, m);
            for r in 0..m {
                for (k, &c) in chosen.iter().enumerate() {
                    basis[(r, k)] = matrix[(r, c)];
                }
            }
            let Ok(solution) = basis.factorize().and_then(|lu| lu.solve(&rhs)) else {
                continue;
            };
            bases += 1;
            if solution.iter().any(|&value| value < -1e-9) {
                continue;
            }
            let value: f64 = chosen
                .iter()
                .zip(&solution)
                .filter(|(&c, _)| c < n)
                .map(|(&c, x)| cost[c] * x)
                .sum();
            if best.is_none_or(|least| value < least) {
                best = Some(value);
            }
        }
        (bases > 0).then_some(best)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn simplex_agrees_with_the_best_basis_on_random_lps(
            cost in proptest::collection::vec(0.0..1.0f64, 1..6),
            raw in proptest::collection::vec(
                (proptest::collection::vec(-1.0..1.0f64, 5..6), -8.0..2.0f64, 0..3usize, -1.0..1.0f64, 0..3usize),
                1..8,
            ),
        ) {
            let n = cost.len();
            let rows = rows_of(&raw, n);
            let mut lp = LinearProgram::new(n, cost.clone()).unwrap();
            for row in &rows {
                lp.add_constraint(row.coefficients.clone(), row.comparison, row.rhs).unwrap();
            }
            let Some(reference) = best_vertex(&cost, &rows) else {
                return Ok(());
            };
            match (lp.solve(), reference) {
                (Ok(solution), Some(reference)) => {
                    prop_assert!(
                        (solution.objective_value - reference).abs() <= 1e-7 * reference.abs().max(1.0),
                        "simplex {:?}, best vertex {reference:?}",
                        solution.objective_value
                    );
                    prop_assert!(solution.values.iter().all(|&x| x >= -1e-7));
                }
                (Err(OptimError::Infeasible), None) => {}
                (solved, reference) => prop_assert!(
                    false,
                    "simplex {:?}, best vertex {reference:?}",
                    solved.map(|solution| solution.objective_value)
                ),
            }
        }
    }
}
