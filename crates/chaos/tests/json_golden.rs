//! Golden layouts of the two JSON formats: the chaos corpus (`ChaosStep`,
//! `Schedule`, `NetParams` with a link override) and the `BENCH_<tag>.json`
//! reports (`BenchReport`, `ScenarioResult`).
//!
//! Each format is pinned by its exact `pretty()` text: a value renders to
//! it and parses back from it. A field moved in a writer, or read under the
//! wrong name, turns these red. The rejection table pins that a malformed
//! document is an error naming the field (or the op) at fault.

use zeus_bench::json::Json;
use zeus_bench::report::{BenchReport, ScenarioResult};
use zeus_chaos::{ChaosStep, Schedule};

/// One step of every variant.
fn every_step() -> Vec<ChaosStep> {
    vec![
        ChaosStep::Write { node: 0, object: 1 },
        ChaosStep::Read { node: 1, object: 2 },
        ChaosStep::Migrate { node: 2, object: 3 },
        ChaosStep::HotBurst {
            object: 4,
            writers: vec![2, 0],
            rounds: 5,
        },
        ChaosStep::Crash { node: 1 },
        ChaosStep::Restart { node: 1 },
        ChaosStep::Isolate { node: 2 },
        ChaosStep::PartitionPair { a: 0, b: 2 },
        ChaosStep::HealNode { node: 2 },
        ChaosStep::HealAll,
        ChaosStep::Spike {
            from: 0,
            to: 1,
            extra: 40,
        },
        ChaosStep::DropBurst {
            from: 1,
            to: 0,
            count: 6,
        },
        ChaosStep::Advance { ticks: 6_000 },
        ChaosStep::Settle { steps: 50_000 },
    ]
}

const STEPS: &str = r#"{
  "op": "write",
  "node": 0,
  "object": 1
}
{
  "op": "read",
  "node": 1,
  "object": 2
}
{
  "op": "migrate",
  "node": 2,
  "object": 3
}
{
  "op": "hot_burst",
  "object": 4,
  "writers": [
    2,
    0
  ],
  "rounds": 5
}
{
  "op": "crash",
  "node": 1
}
{
  "op": "restart",
  "node": 1
}
{
  "op": "isolate",
  "node": 2
}
{
  "op": "partition_pair",
  "a": 0,
  "b": 2
}
{
  "op": "heal_node",
  "node": 2
}
{
  "op": "heal_all"
}
{
  "op": "spike",
  "from": 0,
  "to": 1,
  "extra": 40
}
{
  "op": "drop_burst",
  "from": 1,
  "to": 0,
  "count": 6
}
{
  "op": "advance",
  "ticks": 6000
}
{
  "op": "settle",
  "steps": 50000
}
"#;

const SCHEDULE: &str = r#"{
  "version": 2,
  "name": "golden",
  "seed": 42,
  "nodes": 3,
  "objects": 4,
  "lease_ticks": 2000,
  "net": {
    "min_delay": 1,
    "max_delay": 16,
    "drop_probability": 0.01,
    "duplicate_probability": 0,
    "seed": 8781331169422930,
    "links": [
      {
        "from": 0,
        "to": 2,
        "min_delay": 4,
        "max_delay": 32,
        "drop_probability": 0.05
      }
    ]
  },
  "steps": [
    {
      "op": "write",
      "node": 1,
      "object": 0
    },
    {
      "op": "hot_burst",
      "object": 3,
      "writers": [
        0,
        2
      ],
      "rounds": 7
    },
    {
      "op": "settle",
      "steps": 50000
    }
  ]
}
"#;

const REPORT: &str = r#"{
  "tag": "golden",
  "mode": "smoke",
  "seed": 42,
  "results": [
    {
      "scenario": "fig08_smallbank",
      "config": {
        "nodes": "3",
        "mode": "smoke"
      },
      "throughput_ops": 1234.5,
      "p50_us": 40,
      "p99_us": 200,
      "p999_us": 950,
      "handover_count": 7,
      "aborts": 2,
      "queue_depth_hwm": 12
    }
  ]
}
"#;

fn report() -> BenchReport {
    BenchReport {
        tag: "golden".into(),
        mode: "smoke".into(),
        seed: 42,
        results: vec![ScenarioResult {
            scenario: "fig08_smallbank".into(),
            config: vec![
                ("nodes".into(), "3".into()),
                ("mode".into(), "smoke".into()),
            ],
            throughput_ops: 1234.5,
            p50_us: 40,
            p99_us: 200,
            p999_us: 950,
            handover_count: 7,
            aborts: 2,
            queue_depth_hwm: 12,
        }],
    }
}

#[test]
fn every_step_variant_renders_its_pinned_layout() {
    let steps = every_step();
    let rendered: String = steps.iter().map(|s| s.to_json().pretty()).collect();
    assert_eq!(rendered, STEPS);
    for step in &steps {
        let text = step.to_json().pretty();
        let parsed = ChaosStep::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(&parsed, step);
    }
}

#[test]
fn a_schedule_with_a_link_override_renders_its_pinned_layout() {
    let schedule = Schedule::parse(SCHEDULE).unwrap();
    assert_eq!(schedule.to_corpus_string(), SCHEDULE);
    assert_eq!(
        (schedule.name.as_str(), schedule.seed, schedule.nodes),
        ("golden", 42, 3)
    );
    assert_eq!((schedule.objects, schedule.lease_ticks), (4, 2_000));
    assert_eq!((schedule.net.min_delay, schedule.net.max_delay), (1, 16));
    assert_eq!(schedule.net.drop_probability, 0.01);
    assert_eq!(schedule.net.seed, 8_781_331_169_422_930);
    assert_eq!(schedule.net.links.len(), 1);
    assert_eq!(
        schedule.steps[1],
        ChaosStep::HotBurst {
            object: 3,
            writers: vec![0, 2],
            rounds: 7,
        }
    );
}

#[test]
fn a_bench_report_renders_its_pinned_layout() {
    assert_eq!(report().to_json().pretty(), REPORT);
    assert_eq!(BenchReport::parse(REPORT).unwrap(), report());
}

/// `text` with `from` replaced by `to`, which must occur in it.
fn edit(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "{from:?} is not in the golden text");
    text.replacen(from, to, 1)
}

#[test]
fn malformed_documents_are_rejected_with_the_field_named() {
    let schedules = [
        (edit(SCHEDULE, "  \"objects\": 4,\n", ""), "objects"),
        (
            edit(
                SCHEDULE,
                "\"lease_ticks\": 2000",
                "\"lease_ticks\": \"2000\"",
            ),
            "lease_ticks",
        ),
        (edit(SCHEDULE, "\"node\": 1,", "\"node\": 70000,"), "node"),
        (
            edit(
                SCHEDULE,
                "\"drop_probability\": 0.01",
                "\"drop_probability\": 1.5",
            ),
            "drop_probability",
        ),
        (
            edit(
                SCHEDULE,
                "\"drop_probability\": 0.05",
                "\"drop_probability\": 1.5",
            ),
            "drop_probability",
        ),
        (
            edit(SCHEDULE, "\"rounds\": 7", "\"rounds\": 4294967296"),
            "rounds",
        ),
        (
            edit(SCHEDULE, "\"version\": 2", "\"version\": 1"),
            "version",
        ),
        (edit(SCHEDULE, "\"hot_burst\"", "\"warp\""), "warp"),
        (edit(SCHEDULE, "\"nodes\": 3", "\"nodes\": 0"), "nodes"),
    ];
    for (text, named) in &schedules {
        let err = Schedule::parse(text).expect_err(named);
        assert!(
            err.contains(named),
            "{named}: error does not name it: {err}"
        );
    }
    let reports = [
        (edit(REPORT, "      \"p99_us\": 200,\n", ""), "p99_us"),
        (edit(REPORT, "\"seed\": 42", "\"seed\": \"42\""), "seed"),
        (
            edit(
                REPORT,
                "\"throughput_ops\": 1234.5",
                "\"throughput_ops\": [1]",
            ),
            "throughput_ops",
        ),
    ];
    for (text, named) in &reports {
        let err = BenchReport::parse(text).expect_err(named);
        assert!(
            err.contains(named),
            "{named}: error does not name it: {err}"
        );
    }
}
