//! The five workloads. Each fills an [`Outcome`] with the end-to-end
//! metrics, its own per-layer counts and its correctness gates; in the
//! traced run it also runs the probes of the layers it exercises.

pub mod eval;
pub mod intrusion;
pub mod kv;
pub mod sim;

use crate::harness::RunOpts;
use crate::probes;
use crate::report::Outcome;
use crate::trace::Tracer;

/// Runs `opts.workload`. Returns `None` for a name that is not a workload.
pub fn run(opts: &RunOpts, tracer: &mut Tracer) -> Option<Outcome> {
    let mut outcome = Outcome::default();
    match opts.workload.as_str() {
        "channel-kv" => {
            kv::run(kv::Plane::Channel, opts, tracer, &mut outcome);
            if opts.trace {
                probes::channel_hop(tracer, &mut outcome);
                probes::minbft(opts.seed, tracer, &mut outcome);
                probes::usig_and_metrics(tracer, &mut outcome);
            }
        }
        "socket-kv" => {
            let socket = kv::run(kv::Plane::Socket, opts, tracer, &mut outcome);
            if opts.trace {
                let wire_costs = probes::wire(tracer, &mut outcome);
                probes::socket_hop(tracer, &mut outcome);
                let channel_rps = kv::channel_baseline_rps(opts.seed, tracer);
                probes::attribute_socket(
                    &wire_costs,
                    socket.throughput_rps,
                    channel_rps,
                    socket.msgs_per_req,
                    &mut outcome,
                );
            }
        }
        "sim-sweep" => sim::run(opts, tracer, &mut outcome),
        "live-intrusion" => intrusion::run(opts, tracer, &mut outcome),
        "paper-eval" => eval::run(opts, tracer, &mut outcome),
        _ => return None,
    }
    Some(outcome)
}

/// The set-up child of `workload`: builds what a repetition builds, once,
/// in this fresh process, and returns the seconds from process start to
/// the point where the first operation could be handed to the program.
pub fn setup_probe(workload: &str, seed: u64) -> Option<f64> {
    Some(match workload {
        "channel-kv" => kv::setup_once(kv::Plane::Channel, seed),
        "socket-kv" => kv::setup_once(kv::Plane::Socket, seed),
        "sim-sweep" => sim::setup_once(seed),
        "live-intrusion" => intrusion::setup_once(seed),
        "paper-eval" => eval::setup_once(seed),
        _ => return None,
    })
}
