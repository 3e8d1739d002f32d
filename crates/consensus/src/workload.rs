//! Client workload generation for the service data plane.
//!
//! The paper evaluates the service under a closed-loop client population
//! (Fig. 10); this module generalizes that driver into a configurable
//! workload: closed-loop (each client keeps exactly one request in flight)
//! or open-loop (Poisson arrivals over a client pool, with overload
//! surfacing as shed arrivals), over a key-value operation mix. The same
//! generator drives the simulated [`crate::MinBftCluster`]
//! (`run_workload`), the threaded service ([`crate::threaded`]) and the
//! throughput benchmarks. Fig. 10 is `run_workload`'s closed loop over
//! register writes (`key_space: 0`, `write_ratio: 1.0`).

use crate::minbft::Operation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How requests arrive at the service.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Arrival {
    /// Closed loop: every client immediately replaces a completed request
    /// with a new one (the paper's Fig. 10 driver).
    Closed,
    /// Open loop: arrivals follow a Poisson process with the given rate
    /// (requests per simulated second) over the client pool; an arrival
    /// that finds every client busy is shed.
    Open {
        /// Mean arrivals per second.
        rate: f64,
    },
}

/// Configuration of a client workload.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadConfig {
    /// Number of clients in the pool.
    pub clients: usize,
    /// The arrival process.
    pub arrival: Arrival,
    /// Duration of the run in (simulated or wall-clock) seconds.
    pub duration: f64,
    /// Size of the key space for `Put`/`Get` operations; `0` falls back to
    /// the paper's register operations (`Write`/`Read`).
    pub key_space: u32,
    /// Fraction of operations that write.
    pub write_ratio: f64,
    /// Seed of the workload's own randomness (arrival times and operation
    /// mixes), independent of the cluster seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            clients: 16,
            arrival: Arrival::Closed,
            duration: 5.0,
            key_space: 64,
            write_ratio: 0.5,
            seed: 1,
        }
    }
}

/// Outcome of one workload run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadReport {
    /// Number of replicas serving the workload.
    pub replicas: usize,
    /// Number of clients in the pool.
    pub clients: usize,
    /// Requests offered to the service (for closed loops: completed plus
    /// still in flight).
    pub offered: u64,
    /// Open-loop arrivals shed because every client was busy.
    pub shed: u64,
    /// Requests answered by an f+1 reply quorum.
    pub completed_requests: u64,
    /// Run duration in seconds.
    pub duration: f64,
    /// Completed requests per second.
    pub requests_per_second: f64,
    /// Mean request latency in seconds.
    pub mean_latency: f64,
}

/// A deterministic per-client operation stream over the configured key
/// space and write ratio.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: StdRng,
    key_space: u32,
    write_ratio: f64,
    counter: u64,
}

impl OpStream {
    /// Creates a stream from a seed and the workload's operation mix.
    pub fn new(seed: u64, key_space: u32, write_ratio: f64) -> Self {
        OpStream {
            rng: StdRng::seed_from_u64(seed ^ 0x6f70_5f73_7472_6561),
            key_space,
            write_ratio,
            counter: 0,
        }
    }

    /// The stream of the `index`-th client of a workload seeded with `seed`:
    /// every plane builds its clients' streams with this, so one seed replays
    /// the same requests on each.
    pub fn for_client(seed: u64, index: usize, key_space: u32, write_ratio: f64) -> Self {
        OpStream::new(
            seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            key_space,
            write_ratio,
        )
    }

    /// The next operation of the stream.
    pub(crate) fn next_op(&mut self) -> Operation {
        self.counter += 1;
        let write = self.rng.random::<f64>() < self.write_ratio;
        if self.key_space == 0 {
            if write {
                Operation::Write(self.counter)
            } else {
                Operation::Read
            }
        } else {
            let key = (self.rng.random::<u64>() % u64::from(self.key_space)) as u32;
            if write {
                Operation::Put {
                    key,
                    value: self.counter,
                }
            } else {
                Operation::Get { key }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minbft::{MinBftCluster, MinBftConfig};
    use crate::net::NetworkConfig;

    fn quiet_network() -> NetworkConfig {
        NetworkConfig {
            latency: 0.002,
            jitter: 0.001,
            loss_rate: 0.0,
        }
    }

    #[test]
    fn op_streams_are_deterministic_and_respect_the_mix() {
        let mut a = OpStream::new(7, 32, 1.0);
        let mut b = OpStream::new(7, 32, 1.0);
        for _ in 0..50 {
            let op = a.next_op();
            assert_eq!(op, b.next_op());
            assert!(matches!(op, Operation::Put { key, .. } if key < 32));
        }
        let mut reads = OpStream::new(7, 0, 0.0);
        assert!(matches!(reads.next_op(), Operation::Read));
    }

    #[test]
    fn closed_loop_workload_completes_requests() {
        let mut cluster = MinBftCluster::new(MinBftConfig {
            initial_replicas: 4,
            network: quiet_network(),
            ..MinBftConfig::default()
        });
        let report = cluster.run_workload(&WorkloadConfig {
            clients: 4,
            arrival: Arrival::Closed,
            duration: 2.0,
            ..WorkloadConfig::default()
        });
        assert!(report.completed_requests > 0);
        assert_eq!(report.replicas, 4);
        assert_eq!(report.clients, 4);
        assert!(report.offered >= report.completed_requests);
        assert!(report.mean_latency > 0.0);
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn open_loop_workload_obeys_the_arrival_rate() {
        let mut cluster = MinBftCluster::new(MinBftConfig {
            initial_replicas: 4,
            network: quiet_network(),
            ..MinBftConfig::default()
        });
        let report = cluster.run_workload(&WorkloadConfig {
            clients: 8,
            arrival: Arrival::Open { rate: 40.0 },
            duration: 2.0,
            ..WorkloadConfig::default()
        });
        // ~80 arrivals expected; allow generous slack.
        assert!(
            report.offered + report.shed > 30 && report.offered + report.shed < 200,
            "unexpected arrival count: {} offered + {} shed",
            report.offered,
            report.shed
        );
        assert!(report.completed_requests > 0);
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn batching_completes_more_requests_at_the_same_signature_cost() {
        // The same closed loop at every batch size and a visible USIG
        // signature cost: a batch amortizes one signature and one quorum
        // round over its requests, so it completes more of them, with
        // consistent logs at every batch size.
        let completed = |config: MinBftConfig, workload: &WorkloadConfig| {
            let batch_size = config.batch_size;
            let mut cluster = MinBftCluster::new(config);
            let report = cluster.run_workload(workload);
            assert!(cluster.logs_are_consistent(), "batch {batch_size}");
            report.completed_requests
        };
        // 16 clients on a clamped, checkpointing cluster: batch 16 beats 1.
        let small = |batch_size| {
            let config = MinBftConfig {
                seed: 7,
                initial_replicas: 4,
                batch_size,
                batch_delay: 0.05,
                signature_time: 0.002,
                checkpoint_period: 50,
                ..MinBftConfig::default()
            };
            let workload = WorkloadConfig {
                clients: 16,
                arrival: Arrival::Closed,
                duration: 1.0,
                seed: 7 ^ 0x6461_7461_706c_616e,
                ..WorkloadConfig::default()
            };
            completed(config.clamped(), &workload)
        };
        let (b1, b16) = (small(1), small(16));
        assert!(b16 > b1, "batch 16 must outperform batch 1: {b16} vs {b1}");
        // 64 clients, batch 1 to 256: batch 64 completes at least 5x batch 1.
        let wide = |batch_size| {
            let config = MinBftConfig {
                initial_replicas: 4,
                batch_size,
                // Above batch_size x per-message cost, so the age-based
                // flush does not fragment a batch before it fills.
                batch_delay: 0.1,
                checkpoint_period: 0,
                signature_time: 0.002,
                // Saturated closed loops push latency past the protocol
                // timeout; this measures the data plane, not view changes.
                request_timeout: 10.0,
                network: quiet_network(),
                seed: 7,
                ..MinBftConfig::default()
            };
            let workload = WorkloadConfig {
                clients: 64,
                arrival: Arrival::Closed,
                duration: 1.0,
                key_space: 64,
                write_ratio: 0.5,
                seed: 7,
            };
            completed(config, &workload)
        };
        let [b1, b16, b64, _] = [1, 16, 64, 256].map(wide);
        assert!(b16 > b1, "batch 16 must outperform batch 1: {b16} vs {b1}");
        assert!(b64 >= 5 * b1, "batch 64 {b64} vs batch 1 {b1}");
    }

    #[test]
    fn workload_runs_are_deterministic_in_the_seed() {
        let run = |seed: u64| {
            let mut cluster = MinBftCluster::new(MinBftConfig {
                initial_replicas: 4,
                network: quiet_network(),
                ..MinBftConfig::default()
            });
            cluster.run_workload(&WorkloadConfig {
                clients: 4,
                arrival: Arrival::Open { rate: 30.0 },
                duration: 1.5,
                seed,
                ..WorkloadConfig::default()
            })
        };
        assert_eq!(run(3), run(3));
        assert_ne!(
            run(3),
            run(4),
            "different workload seeds must explore different arrivals"
        );
    }
}
