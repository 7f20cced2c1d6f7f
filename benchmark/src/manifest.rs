//! The benchmark's contract in one place: workloads, metrics, units,
//! directions and bounds. `BENCHMARK.json` is generated from these tables
//! (`zeus-bench-e2e --manifest`) and a test keeps the file in step.

use crate::gen::Workload;

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Why each workload exists (one line each, copied into `BENCHMARK.json`).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::LocalWrite => {
            "Every write lands on the owner: session queue, node-loop batching, store, commit engine and mailbox do all the work and ownership must do none."
        }
        Workload::ReplicaRead => {
            "Two-object read-only transactions at a non-owner replica: the 0-message path, so a commit or ownership optimisation must show no change here."
        }
        Workload::Handover => {
            "Every write targets an object last written on another node: ownership engine and directory arbitration dominate; tx_per_s is objects moved per second."
        }
        Workload::SmallbankMix => {
            "Smallbank mix, Zipf 0.9, 2% remote: reads queue behind pipelined writes, two-object commits, retries and occasional moves share the layers."
        }
        Workload::SimProtocol => {
            "A fixed protocol script on the 5-node deterministic simulator, one thread: protocol CPU cost with no scheduler in the way, and exact message, byte and round-trip counts held to ceilings."
        }
    }
}

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen. Every workload reports every one of them. ISSUE.md asks for
/// 10% and allows a timing that cannot hold it 20%: on this sandbox ten
/// runs of the same code spread by 1 to 18% (README, "Host noise"), so the two
/// timings take the 20%. `setup_s` is a sub-second time and gets the widest
/// bound the contract allows.
pub const END_TO_END: [(Metric, f64); 3] = [
    (hi("tx_per_s", "1/s"), 0.20),
    (lo("tx_p50_us", "us"), 0.20),
    (lo("setup_s", "s"), 0.25),
];

/// Per-layer metrics `zeus-bench-e2e` produces itself, never gated. A metric
/// with no sample on a workload (say `client.read_p50_us` on `local_write`)
/// reads 0.
pub const LAYER_E2E: &[Metric] = &[
    // --- the workload's own traced run: client-side latency, all classes
    // and by class. The 99th percentiles live here, not among the gated
    // metrics: run to run they spread by up to 28% on this sandbox. ---
    lo("client.tx_p99_us", "us"),
    lo("client.write_p50_us", "us"),
    lo("client.write_p99_us", "us"),
    lo("client.read_p50_us", "us"),
    lo("client.read_p99_us", "us"),
    lo("client.handover_p50_us", "us"),
    lo("client.handover_p99_us", "us"),
    lo("client.failed_frac", "frac"),
    // --- the workload's own traced run: counter deltas over the window ---
    lo("net.msgs_per_tx", "msgs"),
    lo("net.bytes_per_tx", "B"),
    lo("net.queue_depth_hwm", "msgs"),
    lo("net.dropped", "count"),
    lo("net.duplicates", "count"),
    lo("ownership.requests_per_tx", "count"),
    hi("ownership.completed_per_s", "1/s"),
    lo("ownership.retry_frac", "frac"),
    lo("ownership.latency_p50_us", "us"),
    lo("ownership.latency_p99_us", "us"),
    lo("core.aborts_per_tx", "count"),
    lo("core.fenced", "count"),
    hi("core.batched_frac", "frac"),
    hi("core.batch_hwm", "count"),
    lo("core.idle_roundtrip_us", "us"),
    // --- spans recorded by the benchmark around the session calls ---
    lo("core.session_submit_ns", "ns"),
    lo("core.session_wait_us", "us"),
    lo("trace_overhead_frac", "frac"),
    // --- the protocol script on the simulator: exact counts ---
    lo("sim.msgs_per_tx", "msgs"),
    lo("sim.bytes_per_tx", "B"),
    lo("sim.commit_rtts", "rtt"),
    lo("sim.handover_rtts", "rtt"),
    lo("sim.session_handover_rtts", "rtt"),
    lo("sim.failover_ticks", "ticks"),
    lo("net.msgs_per_local_write", "msgs"),
    lo("net.bytes_per_local_write", "B"),
    lo("net.msgs_per_read", "msgs"),
    lo("net.msgs_per_handover_reader", "msgs"),
    lo("net.msgs_per_handover_nonreplica", "msgs"),
    lo("net.bytes_per_handover_nonreplica", "B"),
    lo("ownership.rtts_nonreplica", "rtt"),
    lo("commit.retransmits", "count"),
    lo("ownership.retransmits", "count"),
    lo("ownership.nacks", "count"),
    lo("view.changes", "count"),
    lo("core.sim_step_ns", "ns"),
];

/// Per-layer metrics `zeus-bench-probes` produces: one layer at a time, one
/// thread, no network. Absent (with a warning) if that binary did not build.
pub const LAYER_PROBES: &[Metric] = &[
    lo("proto.encode_rinv_ns", "ns"),
    lo("proto.decode_rinv_ns", "ns"),
    lo("proto.encode_rack_ns", "ns"),
    lo("proto.encode_own_req_ns", "ns"),
    lo("proto.decode_own_req_ns", "ns"),
    lo("proto.rinv_wire_bytes", "B"),
    lo("net.frame_encode_ns", "ns"),
    lo("net.frame_decode_ns", "ns"),
    lo("net.reliable_send_ack_ns", "ns"),
    lo("net.udp_loopback_rtt_us", "us"),
    lo("net.mailbox_send_recv_ns", "ns"),
    lo("store.get_ns", "ns"),
    lo("store.update_ns", "ns"),
    lo("store.insert_ns", "ns"),
    lo("commit.begin_ns", "ns"),
    lo("commit.follower_rinv_ns", "ns"),
    lo("commit.coordinator_rack_ns", "ns"),
    lo("commit.cycle_cpu_ns", "ns"),
    lo("ownership.request_ns", "ns"),
    lo("ownership.directory_arbitrate_ns", "ns"),
    lo("ownership.handover_cpu_ns", "ns"),
    lo("locality.record_ns", "ns"),
    lo("locality.tick_ns", "ns"),
    lo("core.node_write_ns", "ns"),
    lo("core.node_read_ns", "ns"),
    lo("core.node_handle_rinv_ns", "ns"),
    lo("core.node_tick_ns_0", "ns"),
    lo("core.node_tick_ns_1024", "ns"),
    lo("core.node_trio_write_cpu_ns", "ns"),
    lo("core.node_trio_handover_cpu_ns", "ns"),
    lo("core.node_trio_wire_write_cpu_ns", "ns"),
];

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    LAYER_E2E.iter().chain(LAYER_PROBES)
}

/// Looks a metric up in any list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .map(|(m, _)| m)
        .chain(per_layer())
        .find(|m| m.name == name)
}

fn metric_json(m: &Metric, bound: Option<f64>) -> String {
    let better = match m.better {
        Better::Higher => "higher",
        Better::Lower => "lower",
    };
    let bound = bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
        m.name, m.unit
    )
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|&w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                why(w)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(m, b)| metric_json(m, Some(*b)))
        .collect();
    let layers: Vec<String> = per_layer().map(|m| metric_json(m, None)).collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(m, _)| m.name)
            .chain(per_layer().map(|m| m.name))
            .collect();
        assert!(per_layer().count() <= 128 && END_TO_END.len() <= 16);
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for (m, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|(m, _)| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for w in Workload::ALL {
            assert!(
                why(w).len() <= 200 && !why(w).contains('\n'),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn benchmark_json_on_disk_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: zeus-bench-e2e --manifest > BENCHMARK.json"
        );
    }
}
