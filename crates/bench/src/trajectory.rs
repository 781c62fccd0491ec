//! The one definition of a `BENCH_<experiment>.json` document.
//!
//! Every experiment that leaves a trajectory file goes through this module:
//! one envelope (`schema`, `version`, `experiment`, optional header fields,
//! `records`), one output-path rule (`$VPPS_BENCH_DIR`, else the current
//! directory), one shape validator driven by each schema's field table, and
//! one list of *recorded-fact* checks per schema — the invariants a sweep
//! measures about itself and writes down (`deterministic`, `lost`, …).
//!
//! A bench module contributes a [`Schema`]: its name and version, the field
//! table of one record (the table *is* the format) and a fact list. `repro`
//! writes each file and then runs [`check`] on what it wrote; `repro check
//! FILE…` runs the same function on any file, dispatching on the `"schema"`
//! string, so CI asserts the recorded facts without re-implementing them.

use std::io;
use std::path::PathBuf;

use vpps_obs::Json;

/// The type a field table requires of one field.
#[derive(Clone, Copy)]
pub enum Ty {
    /// A non-negative integer.
    U64,
    /// A number.
    F64,
    /// `true` / `false`.
    Bool,
    /// A string.
    Str,
    /// An array whose elements the table does not constrain.
    Arr,
    /// An array of objects, each holding these fields.
    ArrOf(&'static [Field]),
    /// A nested object holding these fields.
    Obj(&'static [Field]),
    /// An object holding a non-negative integer under each of these keys —
    /// a tally keyed by the names of an enum's `ALL` list.
    Tally(fn() -> Vec<&'static str>),
}

/// One `(name, type)` row of a field table.
pub type Field = (&'static str, Ty);

/// One `BENCH_*.json` format: what [`check`] dispatches to.
pub struct Schema {
    /// The `"schema"` string.
    pub name: &'static str,
    /// The only `"version"` accepted.
    pub version: u64,
    /// Document-level fields written between `experiment` and `records`.
    pub header: &'static [Field],
    /// Fields of every element of `records`.
    pub record: &'static [Field],
    /// Recorded-fact checks over a shape-valid document: one message per
    /// fact that does not hold. ("`records` is non-empty" is checked for
    /// every schema and is not repeated here.)
    pub facts: fn(&Json) -> Vec<String>,
}

/// Every schema a `BENCH_*.json` file can carry.
pub static SCHEMAS: [&Schema; 6] = [
    &crate::harness::SCHEMA,
    &crate::serve_bench::SCHEMA,
    &crate::sharded_bench::SCHEMA,
    &crate::trace_bench::SCHEMA,
    &crate::chaos_bench::SCHEMA,
    &crate::chaos_sharded_bench::SCHEMA,
];

impl Schema {
    /// Serializes `records` into this schema's document. Key order is
    /// `schema`, `version`, `experiment`, the `header` values, `records`.
    pub fn document(
        &self,
        experiment: &str,
        header: &[(&str, Json)],
        records: Vec<Json>,
    ) -> String {
        let mut doc = Json::obj();
        doc.set("schema", Json::from(self.name));
        doc.set("version", Json::from(self.version));
        doc.set("experiment", Json::from(experiment));
        for (key, value) in header {
            doc.set(key, value.clone());
        }
        doc.set("records", Json::Arr(records));
        doc.to_string()
    }
}

/// Writes `document` to `BENCH_<experiment>.json` — in `$VPPS_BENCH_DIR` when
/// set, else the current directory — and returns the path.
///
/// # Errors
///
/// I/O failure writing the file.
pub fn write(experiment: &str, document: &str) -> io::Result<PathBuf> {
    let mut path = std::env::var_os("VPPS_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_default();
    path.push(format!("BENCH_{experiment}.json"));
    std::fs::write(&path, document)?;
    Ok(path)
}

/// Why [`check`] rejected a document.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// Not a trajectory this build can read: JSON syntax, an unknown schema
    /// or version, a missing or mistyped field.
    Malformed(String),
    /// A well-formed trajectory whose recorded facts do not all hold; one
    /// message per failed fact.
    Facts(Vec<String>),
}

fn fields_match(v: &Json, fields: &[Field], at: &str) -> Result<(), String> {
    for &(name, ty) in fields {
        let path = format!("{at}{name}");
        let f = v.get(name).ok_or_else(|| format!("{path}: missing"))?;
        let (ok, what) = match ty {
            Ty::U64 => (f.as_u64().is_some(), "a non-negative integer"),
            Ty::F64 => (f.as_f64().is_some(), "a number"),
            Ty::Bool => (f.as_bool().is_some(), "a bool"),
            Ty::Str => (f.as_str().is_some(), "a string"),
            Ty::Arr | Ty::ArrOf(_) => (f.as_arr().is_some(), "an array"),
            Ty::Obj(_) | Ty::Tally(_) => (f.as_obj().is_some(), "an object"),
        };
        if !ok {
            return Err(format!("{path}: expected {what}"));
        }
        match ty {
            Ty::ArrOf(inner) => {
                for (i, item) in f.as_arr().unwrap_or_default().iter().enumerate() {
                    if item.as_obj().is_none() {
                        return Err(format!("{path}[{i}]: expected an object"));
                    }
                    fields_match(item, inner, &format!("{path}[{i}]."))?;
                }
            }
            Ty::Obj(inner) => fields_match(f, inner, &format!("{path}."))?,
            Ty::Tally(keys) => {
                let counts: Vec<Field> = keys().into_iter().map(|k| (k, Ty::U64)).collect();
                fields_match(f, &counts, &format!("{path}."))?;
            }
            _ => {}
        }
    }
    Ok(())
}

/// Shape-validates `text` against the schema its `"schema"` string names:
/// envelope, version, header fields and every record's field table.
///
/// # Errors
///
/// Describes the first problem found, naming the offending field's path.
pub fn validate(text: &str) -> Result<(&'static Schema, Json), String> {
    let doc = Json::parse(text)?;
    let name = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("schema: missing or not a string")?;
    let schema = SCHEMAS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown schema {name:?}"))?;
    let version = doc.get("version").and_then(Json::as_u64);
    if version != Some(schema.version) {
        return Err(format!(
            "version: {name} is read at version {} only",
            schema.version
        ));
    }
    fields_match(&doc, &[("experiment", Ty::Str)], "")?;
    fields_match(&doc, schema.header, "")?;
    fields_match(&doc, &[("records", Ty::ArrOf(schema.record))], "")?;
    Ok((schema, doc))
}

/// [`validate`]s `text`, then checks its recorded facts: `records` is
/// non-empty and every entry of the schema's fact list holds.
///
/// # Errors
///
/// [`CheckError::Malformed`] when `text` is not a readable trajectory,
/// [`CheckError::Facts`] naming each recorded fact that does not hold.
pub fn check(text: &str) -> Result<&'static Schema, CheckError> {
    let (schema, doc) = validate(text).map_err(CheckError::Malformed)?;
    let mut failed = Vec::new();
    if records(&doc).is_empty() {
        failed.push("records: empty".to_owned());
    }
    failed.extend((schema.facts)(&doc));
    if failed.is_empty() {
        Ok(schema)
    } else {
        Err(CheckError::Facts(failed))
    }
}

// Accessors for fact lists. They run on shape-valid documents, so a lookup
// that fails means the fact names a field its own table does not have; the
// neutral fallback then fails the fact instead of panicking.

fn at<'a>(v: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(v, |v, key| v.get(key))
}

/// The document's `records`.
pub(crate) fn records(doc: &Json) -> &[Json] {
    arr(doc, "records")
}

/// The array at dotted `path`.
pub(crate) fn arr<'a>(v: &'a Json, path: &str) -> &'a [Json] {
    at(v, path).and_then(Json::as_arr).unwrap_or_default()
}

/// The number at dotted `path`.
pub(crate) fn num(v: &Json, path: &str) -> f64 {
    at(v, path).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// The integer at dotted `path`.
pub(crate) fn uint(v: &Json, path: &str) -> u64 {
    at(v, path).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

/// The string at dotted `path`.
pub(crate) fn text<'a>(v: &'a Json, path: &str) -> &'a str {
    at(v, path).and_then(Json::as_str).unwrap_or_default()
}

/// Collects the failed facts of one document. Document-level facts come
/// first; after [`Facts::row`] each message is prefixed with that record.
#[derive(Default)]
pub(crate) struct Facts {
    /// The failed facts, in the order they were checked.
    pub(crate) failed: Vec<String>,
    row: String,
}

impl Facts {
    /// Names the record the following facts are about.
    pub(crate) fn row(&mut self, tag: String) {
        self.row = tag;
    }

    /// Records `what` as failed unless `holds`.
    pub(crate) fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            let sep = if self.row.is_empty() { "" } else { ": " };
            self.failed.push(format!("{}{sep}{}", self.row, what()));
        }
    }

    /// Every flag in `keys` was recorded `true`.
    pub(crate) fn all_true(&mut self, r: &Json, keys: &[&str]) {
        for key in keys {
            let v = at(r, key).and_then(Json::as_bool);
            self.require(v == Some(true), || format!("{key} is not true"));
        }
    }

    /// Every counter in `keys` was recorded zero.
    pub(crate) fn all_zero(&mut self, r: &Json, keys: &[&str]) {
        for key in keys {
            let v = uint(r, key);
            self.require(v == 0, || format!("{key} is {v}, expected 0"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{AppInstance, AppKind, AppSpec};
    use crate::serve_bench::ServeScenario;
    use crate::{chaos_bench, chaos_sharded_bench, harness, serve_bench, sharded_bench};
    use crate::{trace_bench, ChaosScenario, ChaosShardedScenario};

    /// A small real sweep's document per registered schema, in [`SCHEMAS`]
    /// order.
    fn sweeps() -> [String; 6] {
        let mut spec = AppSpec::paper(AppKind::TreeLstm);
        (spec.hidden, spec.emb, spec.vocab, spec.max_len) = (32, 32, 100, 6);
        let app = AppInstance::new(spec, 4);
        let device = gpu_sim::DeviceConfig::titan_v();
        let run = harness::run_vpps_with(&app, &device, 2, 1, Default::default());
        let serve = serve_bench::run_scenario(&ServeScenario {
            requests: 40,
            hidden: 32,
            backend: vpps::BackendKind::Lowered,
            ..ServeScenario::default()
        });
        let sharded_sc = ServeScenario {
            requests: 60,
            ..sharded_bench::sharded_scenario(false)
        };
        let sharded = [1, 4].map(|d| sharded_bench::sharded_point(&sharded_sc, d).to_json());
        let trace_sc = ServeScenario {
            requests: 120,
            ..trace_bench::trace_scenario(false)
        };
        let trace = trace_bench::trace_point(&trace_sc, 2).to_json();
        let chaos = chaos_bench::run_chaos(&ChaosScenario {
            requests: 24,
            rates: vec![0.0, 0.1],
            ..ChaosScenario::default()
        });
        // The quick sweep itself: smaller traces can leave the crashed
        // device with nothing queued, and crash/hang must show re-dispatch.
        let outages = chaos_sharded_bench::run_chaos_sharded(&ChaosShardedScenario::default());
        let outages = outages.iter().map(|r| r.to_json()).collect();
        [
            harness::SCHEMA.document("fig8", &[], vec![run.to_json()]),
            serve_bench::SCHEMA.document("serve", &[], vec![serve.to_json()]),
            sharded_bench::SCHEMA.document("serve_sharded", &[], sharded.to_vec()),
            trace_bench::SCHEMA.document("serve_trace", &[], vec![trace]),
            chaos_bench::document("chaos", &chaos),
            chaos_sharded_bench::SCHEMA.document("chaos_sharded", &[], outages),
        ]
    }

    /// One recorded fact to falsify: `(record, or None for the header; key;
    /// JSON value to set; what the failure must say besides naming the key)`.
    type Falsified = (Option<usize>, &'static str, &'static str, &'static str);

    fn falsified(schema: &str) -> &'static [Falsified] {
        match schema {
            "vpps-serve-trajectory" => &[
                (Some(0), "script_hits", "0", "is 0"),
                (Some(0), "script_re_misses", "1", "is 1, expected 0"),
            ],
            "vpps-serve-sharded-trajectory" => &[
                (Some(0), "deterministic", "false", "devices=1"),
                (Some(1), "outputs_match_single", "false", "devices=4"),
                (Some(0), "warm_hit_rate", "0.5", "0.500 < 0.9"),
                (Some(1), "goodput_rps", "1", "from 1 to 4 devices"),
                (Some(1), "devices", "3", "scaling needs devices=1 and"),
            ],
            "vpps-serve-trace" => &[
                (Some(0), "tiled_exactly", "false", "is not true"),
                (Some(0), "terminal_exactly_once", "false", "is not true"),
                (Some(0), "events_dropped", "1", "is 1, expected 0"),
                (Some(0), "traced", "1", "1 of 120 requests"),
                (Some(0), "deterministic", "false", "is not true"),
            ],
            "vpps-chaos-trajectory" => &[
                (None, "zero_rate_identical", "false", "is not true"),
                (None, "same_seed_identical", "false", "is not true"),
                (Some(1), "rate", "0", "faults.total is 0 off"),
            ],
            "vpps-chaos-sharded-trajectory" => &[
                (Some(0), "lost", "1", "devices=2 kind=crash"),
                (Some(2), "duplicates", "1", "kind=brownout"),
                (Some(1), "deterministic", "false", "kind=hang"),
                (Some(4), "redispatched", "0", "is 0"),
                (Some(2), "device_downs", "1", "is 1, expected 0"),
                (Some(0), "goodput_post_rps", "0", "0 < 0.9x"),
                (Some(3), "devices", "2", "no record has devices=4"),
            ],
            _ => &[],
        }
    }

    /// `check`'s verdict as `repro check` exits on it: `(code, messages)`.
    fn verdict(text: &str) -> (i32, String) {
        match check(text) {
            Ok(_) => (0, String::new()),
            Err(CheckError::Facts(failed)) => (1, failed.join("; ")),
            Err(CheckError::Malformed(e)) => (2, e),
        }
    }

    /// `doc` with `edit` applied to the entries of record `at`, or to the
    /// document's own entries for `None`.
    fn edited(
        doc: &Json,
        at: Option<usize>,
        edit: impl FnOnce(&mut Vec<(String, Json)>),
    ) -> String {
        let mut doc = doc.clone();
        let Json::Obj(top) = &mut doc else {
            unreachable!("documents are objects")
        };
        match at {
            None => edit(top),
            Some(i) => {
                let records = top.iter_mut().find(|(k, _)| k == "records");
                let Some((_, Json::Arr(records))) = records else {
                    unreachable!("documents have records")
                };
                let Json::Obj(record) = &mut records[i] else {
                    unreachable!("records are objects")
                };
                edit(record);
            }
        }
        doc.to_string()
    }

    fn set(entries: &mut [(String, Json)], key: &str, value: Json) {
        entries.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
    }

    #[test]
    fn every_schema_checks_its_own_sweep_and_rejects_each_corruption() {
        for (schema, text) in SCHEMAS.iter().zip(sweeps()) {
            let name = schema.name;
            assert_eq!(check(&text).map(|s| s.name), Ok(name), "{name}: own sweep");
            let doc = Json::parse(&text).unwrap();

            // Envelope: wrong schema, wrong version, each header field.
            let v = verdict(&edited(&doc, None, |d| set(d, "schema", "nope".into())));
            assert_eq!(v, (2, "unknown schema \"nope\"".into()), "{name}");
            let next = Json::from(schema.version + 1);
            let (code, e) = verdict(&edited(&doc, None, |d| set(d, "version", next)));
            assert!(code == 2 && e.starts_with("version: "), "{name}: {e}");
            for (key, _) in schema.header.iter().chain(&[("experiment", Ty::Str)]) {
                let v = verdict(&edited(&doc, None, |d| d.retain(|(k, _)| k != key)));
                assert_eq!(v, (2, format!("{key}: missing")), "{name}");
            }

            // Every field of the record table: removed, then wrongly typed.
            for &(key, ty) in schema.record {
                let v = verdict(&edited(&doc, Some(0), |r| r.retain(|(k, _)| k != key)));
                assert_eq!(v, (2, format!("records[0].{key}: missing")), "{name}");
                let wrong = match ty {
                    Ty::Str => Json::Num(1.0),
                    _ => Json::from("x"),
                };
                let (code, e) = verdict(&edited(&doc, Some(0), |r| set(r, key, wrong)));
                let expected = format!("records[0].{key}: expected ");
                assert!(code == 2 && e.starts_with(&expected), "{name}: {e}");
            }

            // Recorded facts: emptied records, then each falsified fact.
            let none = Json::Arr(Vec::new());
            let (code, e) = verdict(&edited(&doc, None, |d| set(d, "records", none)));
            assert!(code == 1 && e.contains("records: empty"), "{name}: {e}");
            for &(at, key, value, says) in falsified(name) {
                let value = Json::parse(value).unwrap();
                let (code, e) = verdict(&edited(&doc, at, |r| set(r, key, value)));
                let named = code == 1 && e.contains(key) && e.contains(says);
                assert!(named, "{name}: falsified {key}: {e}");
            }

            // Never a panic: a digit zeroed (the shape survives, so the fact
            // list runs on values no sweep produced) or the text cut there.
            let digits = text.match_indices(|c: char| c.is_ascii_digit());
            for (i, _) in digits.step_by(13) {
                let _ = check(&format!("{}0{}", &text[..i], &text[i + 1..]));
                assert_eq!(verdict(&text[..i]).0, 2, "{name}: cut at {i}");
            }
        }
    }

    #[test]
    fn nested_fields_are_named_by_path() {
        let text = "{\"a\":{\"n\":1},\"rows\":[{\"n\":2},{\"n\":-1}],\"t\":{\"x\":0}}";
        let record = Json::parse(text).unwrap();
        const N: &[Field] = &[("n", Ty::U64)];
        let ok: &[Field] = &[("a", Ty::Obj(N)), ("t", Ty::Tally(|| vec!["x"]))];
        assert_eq!(fields_match(&record, ok, "r."), Ok(()));
        let err = |field: Field| fields_match(&record, &[field], "r.").unwrap_err();
        let rows = err(("rows", Ty::ArrOf(N)));
        assert_eq!(rows, "r.rows[1].n: expected a non-negative integer");
        assert_eq!(err(("a", Ty::ArrOf(N))), "r.a: expected an array");
        assert_eq!(err(("a", Ty::Obj(&[("m", Ty::F64)]))), "r.a.m: missing");
        assert_eq!(err(("t", Ty::Tally(|| vec!["x", "y"]))), "r.t.y: missing");
    }

    #[test]
    fn unreadable_documents_are_malformed_never_a_panic() {
        let trace = "{\"schema\":\"vpps-serve-trace\",\"version\":1,\"experiment\":\"x\"";
        for text in [
            "",
            "junk",
            "{}",
            "[]",
            "{\"schema\":7}",
            "{\"schema\":\"nope\"}",
            "{\"schema\":\"vpps-chaos-trajectory\"}",
            "{\"schema\":\"vpps-chaos-trajectory\",\"version\":1}",
            &format!("{trace}}}"),
            &format!("{trace},\"records\":7}}"),
            &format!("{trace},\"records\":[7]}}"),
            "\"\\ud800A\"",
        ] {
            assert_eq!(verdict(text).0, 2, "{text}");
        }
        let (code, e) = verdict(&"[".repeat(1_000_000));
        assert!(code == 2 && e.contains("nesting deeper than"), "{e}");
    }
}
