//! Corpus regression replay: every schedule under `tests/chaos_corpus/` is
//! the shrunk repro of a bug the explorer once caught (the file name says
//! which). Replaying them on every `cargo test` keeps those bugs fixed.

use std::path::{Path, PathBuf};

use zeus_chaos::{run_schedule, RunOptions, Schedule};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/chaos_corpus")
}

/// Every `*.json` file under `dir`, sorted by path.
fn json_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_repros_stay_fixed() {
    let files = json_files(&corpus_dir());
    assert!(
        !files.is_empty(),
        "the chaos corpus must not be empty — it is the regression net"
    );
    let mut failures = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let schedule = Schedule::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // The corpus format must be stable: re-rendering a parsed schedule
        // reproduces the file byte for byte.
        assert_eq!(
            schedule.to_corpus_string(),
            text,
            "{}: corpus rendering drifted",
            path.display()
        );
        let outcome = run_schedule(&schedule, &RunOptions::default());
        if let Some(v) = outcome.violation {
            failures.push(format!("{}: [{}] {}", path.display(), v.kind, v.detail));
        }
    }
    assert!(
        failures.is_empty(),
        "corpus repros regressed:\n{}",
        failures.join("\n")
    );
}

#[test]
fn corpus_repros_stay_fixed_with_the_predictive_policy_live() {
    // Second arm of the regression net: every repro must also replay green
    // with the predictive locality engine running on every node. Policy
    // actions (widen / shrink / pre-migrate) ride the same ownership
    // protocol the repros stress, so this pins "the policy never re-opens
    // a fixed bug" — the exact hole the shrink-last-copy repro below was
    // minted from.
    let files = json_files(&corpus_dir());
    let options = RunOptions {
        policy: zeus_proto::PolicyKind::Predictive,
        ..RunOptions::default()
    };
    let mut failures = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let schedule = Schedule::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let outcome = run_schedule(&schedule, &options);
        if let Some(v) = outcome.violation {
            failures.push(format!("{}: [{}] {}", path.display(), v.kind, v.detail));
        }
    }
    assert!(
        failures.is_empty(),
        "corpus repros regressed under the predictive policy:\n{}",
        failures.join("\n")
    );
}

#[test]
fn pending_repros_still_fail() {
    // `tests/chaos_pending/` holds shrunk repros of bugs not fixed yet. Each
    // must keep the corpus format and keep violating an oracle: a change
    // that fixes or masks one moves its file into the corpus, where it must
    // replay green.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/chaos_pending");
    for path in json_files(&dir) {
        let text = std::fs::read_to_string(&path).unwrap();
        let schedule = Schedule::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            schedule.to_corpus_string(),
            text,
            "{}: corpus rendering drifted",
            path.display()
        );
        let outcome = run_schedule(&schedule, &RunOptions::default());
        assert!(
            outcome.violation.is_some(),
            "{} no longer fails: move it into tests/chaos_corpus/",
            path.display()
        );
    }
}

#[test]
fn wedged_dataless_owner_placement_recovers_by_reset() {
    // Five nodes; object 3's replicas are eliminated one by one inside the
    // fault envelope, then a write aborts with DataLoss while the last
    // holder is isolated, deciding a *data-less owner-only* placement.
    // After the holder is expelled and re-admitted wiped, the final write
    // can only succeed through reset-to-first-touch arbitration (the sole
    // other member ACKs without data, proving the object empty). If that
    // path regresses the write fails and the committed count drops.
    let path = corpus_dir().join("wedged_dataless_owner_only_placement_resets_to_first_touch.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let schedule = Schedule::parse(&text).unwrap();
    let outcome = run_schedule(&schedule, &RunOptions::default());
    assert!(
        outcome.violation.is_none(),
        "wedge repro violated: {:?}",
        outcome.violation
    );
    assert_eq!(
        outcome.stats.committed_writes, 2,
        "the post-reset write must commit (stats: {:?})",
        outcome.stats
    );
    assert_eq!(
        outcome.stats.committed_reads, 1,
        "the read after the reset must observe the fresh history"
    );
}

#[test]
fn corpus_replay_is_deterministic() {
    let dir = corpus_dir();
    let path = dir.join("false_suspicion_readmission.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let schedule = Schedule::parse(&text).unwrap();
    let a = run_schedule(&schedule, &RunOptions::default());
    let b = run_schedule(&schedule, &RunOptions::default());
    assert_eq!(a, b, "replaying the same schedule must be bit-identical");
}
