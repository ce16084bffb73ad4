//! Golden JSONL trace of the collision-record events of a signal-backed
//! FCAT-3 run.
//!
//! `soa_bit_identity` pins whole reports, which do not show the per-attempt
//! stream the adaptive-λ controller and traces consume: each `attempted`
//! event's hop, residual SNR and success, in order, plus the `resolved`,
//! `failed` and re-query events around them. This test pins those lines
//! for the two policies that add events of their own — `SalvagePartial`
//! (depth-1 retries) and `requery()` (scheduled re-query slots). λ = 3 at
//! noise 0.25 gives hop ≥ 2 attempts, failures and salvages in 300 tags.
//!
//! The golden holds, per policy, one `{"policy":…}` header line followed by
//! that run's `"type":"record"` trace lines verbatim. To (re)bless after an
//! *intentional* behaviour change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test trace_goldens
//! ```

use anc_rfid::prelude::*;
use anc_rfid::sim::obs::JsonlSink;
use anc_rfid::sim::run_inventory_observed;
use std::path::PathBuf;

const GOLDEN: &str = "trace_fcat3_signal.jsonl";

fn record_lines(policy: RecoveryPolicy) -> String {
    let protocol = Fcat::new(
        FcatConfig::default()
            .with_lambda(3)
            .with_resolution(ResolutionModel::SignalBacked(
                SignalResolutionConfig::default().with_noise_std(0.25),
            ))
            .with_recovery(policy),
    );
    let tags = population::uniform(&mut seeded_rng(700), 300);
    let config = SimConfig::default().with_seed(0);
    let mut sink = JsonlSink::new(Vec::new());
    run_inventory_observed(&protocol, &tags, &config, &mut sink).expect("inventory completes");
    let buffer = sink.finish().expect("in-memory writes cannot fail");
    let trace = String::from_utf8(buffer).expect("JSONL is UTF-8");
    trace
        .lines()
        .filter(|line| line.starts_with("{\"type\":\"record\""))
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn fcat3_signal_record_events_match_golden() {
    let mut actual = String::new();
    for (name, policy) in [
        ("salvage", RecoveryPolicy::SalvagePartial),
        ("requery", RecoveryPolicy::requery()),
    ] {
        let lines = record_lines(policy);
        assert!(
            lines.contains("\"event\":\"attempted\""),
            "{name}: no attempt events traced"
        );
        actual.push_str(&format!("{{\"policy\":\"{name}\"}}\n"));
        actual.push_str(&lines);
    }

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens");
    let path = dir.join(GOLDEN);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless with UPDATE_GOLDENS=1 cargo test --test trace_goldens",
            path.display()
        )
    });
    if expected != actual {
        let (want, got): (Vec<&str>, Vec<&str>) =
            (expected.lines().collect(), actual.lines().collect());
        let line = (0..want.len().max(got.len()))
            .find(|&i| want.get(i) != got.get(i))
            .unwrap_or(0);
        panic!(
            "record-event trace drifted from {} at line {}:\n  expected: {}\n  actual:   {}\n\
             If this change is intentional, re-bless with UPDATE_GOLDENS=1.",
            path.display(),
            line + 1,
            want.get(line).unwrap_or(&"<end of file>"),
            got.get(line).unwrap_or(&"<end of file>"),
        );
    }
}
