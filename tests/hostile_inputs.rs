//! Every parser that is handed bytes from outside the process — the obs JSON
//! reader, metric snapshots, `BENCH_*.json` trajectories (`repro check`),
//! model checkpoints and the two fault-spec parsers behind `loadgen`'s flags
//! — must answer hostile input with `Ok` or a typed `Err`, never a panic.
//!
//! Three input families per parser: arbitrary bytes, a soup of the format's
//! own tokens (which reaches far deeper parser states than raw bytes do),
//! and a valid document with a few bytes overwritten or cut short.

use dyn_graph::{load_model, save_model, Model};
use gpu_sim::{FaultConfig, OutageWindow};
use proptest::prelude::*;
use vpps_bench::trajectory;
use vpps_obs::{Json, Snapshot};

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..256)
}

/// Concatenations of up to 40 of `tokens`.
fn soup(tokens: &'static [&'static str]) -> impl Strategy<Value = String> {
    prop::collection::vec(0..tokens.len(), 0..40)
        .prop_map(move |picks| picks.into_iter().map(|i| tokens[i]).collect())
}

#[rustfmt::skip]
const JSON_TOKENS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "d800", "dc00", "0041", "\\ud83d\\ude00",
    "\\ud800", "\\udc00", "\\u0041",
    "null", "true", "false", "0", "-", "1e999", "1.5", "e", " ", "\n", "\"k\"", "\"schema\"",
    "\"version\"", "\"records\"", "\"experiment\"", "\"vpps-obs-snapshot\"", "\"counters\"",
    "\"gauges\"", "\"histograms\"", "\"extra\"", "\"buckets\"", "\"vpps-serve-trace\"",
    "\"vpps-chaos-trajectory\"", "é", "😀",
];

#[rustfmt::skip]
const SPEC_TOKENS: &[&str] = &[
    "seed", "rate", "outage", "brownout_factor", "hang", "launch", "jit", "=", ",", "@", "..",
    ":", "crash", "brownout", "0", "1", "7", "0.5", "-1", "1e306", "1e999", "NaN", "inf", " ",
    "18446744073709551616", "é",
];

/// `valid` with each `(position, byte)` edit applied, then cut at `keep`.
fn corrupted(valid: &[u8], edits: &[(usize, u8)], keep: usize) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    for &(at, byte) in edits {
        let at = at % bytes.len();
        bytes[at] = byte;
    }
    bytes.truncate(keep % (bytes.len() + 1));
    bytes
}

fn arb_edits() -> impl Strategy<Value = (Vec<(usize, u8)>, usize)> {
    (
        prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        any::<usize>(),
    )
}

fn sample_snapshot() -> String {
    let mut s = Snapshot::default();
    s.counters.insert("engine.barriers".into(), 12);
    s.gauges.insert("specialize.jit_compile_s".into(), 0.25);
    s.set_extra("experiment", Json::from("fig8"));
    let text = s.to_json();
    // `HistogramSnapshot` is not constructible from here; splice one in.
    text.replace(
        "\"histograms\":{}",
        "\"histograms\":{\"h\":{\"buckets\":[1,0,2],\"sum\":9,\
         \"quantiles\":{\"p50\":1,\"p95\":4,\"p99\":4}}}",
    )
}

/// A one-record `vpps-bench-trajectory` document.
const SAMPLE_TRAJECTORY: &str = "{\"schema\":\"vpps-bench-trajectory\",\"version\":1,\
    \"experiment\":\"x\",\"records\":[{\"system\":\"VPPS\",\"batch\":1,\"throughput\":2.5,\
    \"dram_load_bytes\":9,\"dram_store_bytes\":8,\"weight_load_bytes\":7,\"launches\":1,\
    \"barrier_stall_fraction\":0,\"kernel_time_s\":0.1}]}";

fn sample_checkpoint() -> Vec<u8> {
    let mut m = Model::new(3);
    m.add_matrix("W", 3, 2);
    m.add_bias("b", 2);
    m.add_lookup("emb", 4, 2);
    save_model(&m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_snapshot_and_trajectory_readers_never_panic(
        bytes in arb_bytes(),
        tokens in soup(JSON_TOKENS),
        (edits, keep) in arb_edits(),
    ) {
        prop_assert!(trajectory::check(SAMPLE_TRAJECTORY).is_ok());
        let snapshot = corrupted(sample_snapshot().as_bytes(), &edits, keep);
        let trajectory = corrupted(SAMPLE_TRAJECTORY.as_bytes(), &edits, keep);
        for text in [&bytes, tokens.as_bytes(), &snapshot, &trajectory] {
            let text = String::from_utf8_lossy(text);
            if let Ok(v) = Json::parse(&text) {
                // What parses must survive its own writer.
                prop_assert_eq!(Json::parse(&v.to_string()), Ok(v));
            }
            let _ = Snapshot::parse(&text);
            let _ = trajectory::check(&text);
        }
    }

    #[test]
    fn load_model_never_panics(
        bytes in arb_bytes(),
        (edits, keep) in arb_edits(),
        words in any::<u64>(),
        at in any::<usize>(),
    ) {
        let _ = load_model(&bytes);
        let valid = sample_checkpoint();
        let _ = load_model(&corrupted(&valid, &edits, keep));
        // Two adjacent header words (counts, a length, rows x cols) replaced.
        let mut patched = valid.clone();
        let at = at % (valid.len() - 7);
        patched[at..at + 8].copy_from_slice(&words.to_le_bytes());
        let _ = load_model(&patched);
    }

    #[test]
    fn fault_spec_parsers_never_panic(bytes in arb_bytes(), tokens in soup(SPEC_TOKENS)) {
        for spec in [String::from_utf8_lossy(&bytes).into_owned(), tokens] {
            let _ = FaultConfig::parse(&spec);
            let _ = OutageWindow::parse(&spec);
        }
    }
}

#[test]
fn malformed_fault_specs_are_typed_errors() {
    #[rustfmt::skip]
    let malformed = [
        "hang", "=", "=0.1", "hang=", "hang=x", "hang=1.5", "hang=-0.1", "hang=NaN", "seed=-1",
        "seed=1.5", "seed=18446744073709551616", "bogus=0.1", "brownout_factor=0.5",
        "brownout_factor=inf", "outage=", "outage=1", "outage=1@", "outage=1@5", "outage=1@5..",
        "outage=1@..5", "outage=x@1..2", "outage=-1@1..2", "outage=1@2..1", "outage=1@1..1",
        "outage=1@-1..2", "outage=1@1..2:melt", "outage=1@NaN..2", "outage=1@0..inf",
        "outage=1@0..1e306",
    ];
    for spec in malformed {
        assert!(
            FaultConfig::parse(spec).is_err(),
            "{spec:?} must be rejected"
        );
        if let Some(window) = spec.strip_prefix("outage=") {
            assert!(
                OutageWindow::parse(window).is_err(),
                "{window:?} must be rejected"
            );
        }
    }
    assert!(OutageWindow::parse("").is_err());
    assert!(OutageWindow::parse("1@0..1:").is_err());
}
