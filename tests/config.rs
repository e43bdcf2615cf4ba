//! The `COBRA_*` knob boundary: one parser, one warn-and-default rule,
//! and a table that `docs/CONFIG.md` must match.
//!
//! Everything here goes through the pure parser `Config::from_vars`, so
//! no test touches the process environment or the process config.

use cobra::core::config::{unknown_var_warnings, Config, Rule, HARNESS_VARS, KNOBS};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::ffi::OsString;
use std::os::unix::ffi::OsStringExt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Parses a config where only `name` is set, to `value`.
fn parse_one(name: &str, value: OsString) -> (Config, Vec<String>) {
    Config::from_vars(|k| (k == name).then(|| value.clone()))
}

fn parse_str(name: &str, value: &str) -> (Config, Vec<String>) {
    parse_one(name, OsString::from(value))
}

fn defaults() -> Config {
    let (config, warnings) = Config::from_vars(|_| None);
    assert!(
        warnings.is_empty(),
        "an empty environment warns: {warnings:?}"
    );
    assert_eq!(config, Config::default());
    config
}

#[test]
fn every_knob_is_parsed_exactly_once() {
    let seen = RefCell::new(Vec::new());
    Config::from_vars(|k| {
        seen.borrow_mut().push(k.to_string());
        None
    });
    let mut seen = seen.into_inner();
    seen.sort();
    let mut table: Vec<String> = KNOBS.iter().map(|k| k.name.to_string()).collect();
    table.sort();
    assert_eq!(seen, table);
}

/// Spellings the old per-knob readers disagreed on, each read by the
/// knob's one rule.
#[test]
fn drifted_spellings_follow_one_rule() {
    type Check = fn(&Config) -> bool;
    let cases: &[(&str, &str, Check, usize)] = &[
        ("COBRA_PROFILE", "off", |c| !c.profile, 0),
        ("COBRA_PROFILE", "1", |c| c.profile, 0),
        ("COBRA_VERIFY_PLAN", "false", |c| !c.verify_plan, 0),
        ("COBRA_VERIFY_PLAN", "", |c| !c.verify_plan, 0),
        ("COBRA_VERIFY_PLAN", "1", |c| c.verify_plan, 0),
        ("COBRA_SANITIZE", "yes", |c| c.sanitize, 0),
        ("COBRA_PLAN", "OFF", |c| !c.plan, 0),
        ("COBRA_PLAN", "0", |c| !c.plan, 0),
        ("COBRA_PLAN", "interpreter", |c| c.plan, 1),
        ("COBRA_INTERVAL", " 2000", |c| c.interval == Some(2000), 0),
        ("COBRA_INTERVAL", "2_000", |c| c.interval == Some(2000), 0),
        ("COBRA_INTERVAL", "0", |c| c.interval.is_none(), 0),
        ("COBRA_INSTS", " 2000", |c| c.insts == 2000, 0),
        ("COBRA_INSTS", "0", |c| c.insts == 1, 0),
        (
            "COBRA_THREADS",
            "x",
            |c| c.threads == Config::default().threads,
            1,
        ),
        ("COBRA_THREADS", "0", |c| c.threads == 1, 0),
        ("COBRA_METRICS", "", |c| c.metrics.is_none(), 0),
        ("COBRA_METRICS", "  ", |c| c.metrics.is_none(), 0),
        (
            "COBRA_TRACE_DIR",
            "/no/such/cobra/dir",
            |c| c.trace_dir.is_none(),
            1,
        ),
    ];
    for &(name, value, check, warns) in cases {
        let (config, warnings) = parse_str(name, value);
        assert!(check(&config), "{name}={value:?} parsed to {config:?}");
        assert_eq!(warnings.len(), warns, "{name}={value:?}: {warnings:?}");
        for w in &warnings {
            assert!(w.contains(name) && w.contains("default"), "{w}");
        }
    }
}

/// Every default `docs/CONFIG.md` states as a value parses back to the
/// default config, so the doc, the knob table and `Config::default`
/// agree.
#[test]
fn documented_defaults_are_the_default_config() {
    let defaults = defaults();
    let mut checked = 0;
    for knob in KNOBS.iter().filter(|k| k.default != "unset") {
        let (config, warnings) = parse_str(knob.name, knob.default);
        if warnings.is_empty() {
            assert_eq!(config, defaults, "{} = {:?}", knob.name, knob.default);
            checked += 1;
        }
    }
    assert_eq!(checked, 6, "knobs whose documented default is a value");
}

/// `docs/CONFIG.md` lists exactly the knob table: the same variables
/// with the same defaults. The "Test harness" table is not library
/// configuration and is skipped.
#[test]
fn config_doc_matches_the_knob_table() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/CONFIG.md"))
        .expect("docs/CONFIG.md is readable");
    let mut section = "";
    let mut documented = BTreeSet::new();
    for line in doc.lines() {
        if let Some(heading) = line.strip_prefix("## ") {
            section = heading;
        }
        let Some(row) = line.strip_prefix("| `COBRA_") else {
            continue;
        };
        if section == "Test harness" {
            continue;
        }
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let name = format!("COBRA_{}", cells[0].trim_end_matches('`'));
        let default = cells[1].replace('`', "");
        assert!(
            documented.insert((name.clone(), default)),
            "{name} is documented twice"
        );
    }
    let table: BTreeSet<(String, String)> = KNOBS
        .iter()
        .map(|k| (k.name.to_string(), k.default.to_string()))
        .collect();
    assert_eq!(documented, table);
}

/// A set `COBRA_*` name that is neither a knob nor a harness variable
/// warns once, naming it; everything else passes silently.
#[test]
fn unknown_cobra_vars_warn_once_each() {
    let cases: &[(&[&str], &[&str])] = &[
        (&[], &[]),
        (&["PATH", "HOME", "CARGO_TARGET_DIR"], &[]),
        (&["COBRA_INSTS", "COBRA_PROFILE", "COBRA_GOLDEN_BLESS"], &[]),
        (&["COBRA_GRID_JSON"], &["COBRA_GRID_JSON"]),
        (
            &["COBRA_SERVE_CACHE", "COBRA_INSTS", "COBRA_INSTSS"],
            &["COBRA_SERVE_CACHE", "COBRA_INSTSS"],
        ),
        (&["cobra_insts", "XCOBRA_INSTS", "COBRA"], &[]),
        (&["COBRA_"], &["COBRA_"]),
    ];
    for &(names, warned) in cases {
        let warnings = unknown_var_warnings(names.iter().copied());
        assert_eq!(warnings.len(), warned.len(), "{names:?}: {warnings:?}");
        for (w, name) in warnings.iter().zip(warned) {
            assert!(
                w.starts_with("warning: ") && w.contains(&format!("{name} ")),
                "{name}: {w}"
            );
        }
    }
}

/// The "Test harness" table of `docs/CONFIG.md` is exactly
/// `HARNESS_VARS`.
#[test]
fn harness_doc_matches_the_harness_table() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/CONFIG.md"))
        .expect("docs/CONFIG.md is readable");
    let mut section = "";
    let mut documented = Vec::new();
    for line in doc.lines() {
        if let Some(heading) = line.strip_prefix("## ") {
            section = heading;
        }
        if let Some(row) = line.strip_prefix("| `") {
            if section == "Test harness" {
                documented.push(row.split('`').next().unwrap_or_default().to_string());
            }
        }
    }
    assert_eq!(documented, HARNESS_VARS);
}

/// Deterministic xorshift64* generator (as in the analysis robustness
/// harness), so every failure is reproducible from the printed input.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Valid and near-valid spellings a garbled value starts from.
const SEEDS: &[&str] = &[
    "",
    "0",
    "1",
    "on",
    "OFF",
    "yes",
    "no",
    "true",
    "False",
    "2000",
    "2_000",
    " 64 ",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "+5",
    "metrics/",
    "/tmp",
    ".",
    "off",
    "serve-cache",
    "ev-{}.jsonl",
    "x",
];

/// Characters a mutation may splice in: digits, separators, flag
/// letters, path syntax, whitespace and multi-byte UTF-8.
const SPLICE: &[&str] = &[
    "0", "1", "9", "_", "-", "+", " ", "\t", "\n", "o", "n", "f", "T", "e", "s", "/", ".", "{}",
    "é", "×", "\u{a0}", "\u{3000}",
];

/// One garbled value: raw random bytes (often not UTF-8) or a seed with
/// 1–4 random edits.
fn garble(rng: &mut Rng) -> OsString {
    if rng.below(4) == 0 {
        let len = rng.below(12);
        return OsString::from_vec((0..len).map(|_| rng.next() as u8).collect());
    }
    let seed = SEEDS[rng.below(SEEDS.len())];
    let mut chars: Vec<String> = seed.chars().map(String::from).collect();
    for _ in 0..=rng.below(4) {
        let piece = SPLICE[rng.below(SPLICE.len())].to_string();
        match rng.below(3) {
            0 => chars.insert(rng.below(chars.len() + 1), piece),
            1 if !chars.is_empty() => {
                let i = rng.below(chars.len());
                chars[i] = piece;
            }
            _ if !chars.is_empty() => {
                chars.remove(rng.below(chars.len()));
            }
            _ => {}
        }
    }
    OsString::from(chars.concat())
}

/// What the knob's rule makes of `value`, as `docs/CONFIG.md` states the
/// rules: `None` for unset, `Some(Err(()))` for a rejected value, and
/// `Some(Ok(canonical))` for an accepted one spelled canonically.
fn reference(rule: Rule, value: &OsString) -> Option<Result<String, ()>> {
    let Some(text) = value.to_str() else {
        return Some(Err(()));
    };
    let text = text.trim();
    if text.is_empty() {
        return None;
    }
    Some(match rule {
        Rule::Flag => match text.to_ascii_lowercase().as_str() {
            "1" | "on" | "true" | "yes" => Ok("1".into()),
            "0" | "off" | "false" | "no" => Ok("0".into()),
            _ => Err(()),
        },
        Rule::Count => text
            .replace('_', "")
            .parse::<u64>()
            .map(|n| n.to_string())
            .map_err(drop),
        Rule::Path => Ok(text.to_string()),
        Rule::Dir if std::path::Path::new(text).is_dir() => Ok(text.to_string()),
        Rule::Dir => Err(()),
    })
}

/// 600 garbled values per knob: the parser never panics, every knob ends
/// at its default or at the value its rule reads from the input, and a
/// rejected value gives exactly one warning, naming the knob.
#[test]
fn garbled_knob_values_default_or_parse_and_warn_once() {
    let defaults = defaults();
    let mut rng = Rng(0x00c0_b4a5_eed5_1234);
    let mut verdicts = [0usize; 3];
    for knob in &KNOBS {
        for _ in 0..600 {
            let value = garble(&mut rng);
            let (config, warnings) =
                catch_unwind(AssertUnwindSafe(|| parse_one(knob.name, value.clone())))
                    .unwrap_or_else(|_| panic!("{}={value:?} panicked the parser", knob.name));
            let verdict = reference(knob.rule, &value);
            verdicts[match verdict {
                None => 0,
                Some(Err(())) => 1,
                Some(Ok(_)) => 2,
            }] += 1;
            match verdict {
                None => {
                    assert_eq!(config, defaults, "{}={value:?} is unset", knob.name);
                    assert!(warnings.is_empty(), "{}={value:?}: {warnings:?}", knob.name);
                }
                Some(Err(())) => {
                    assert_eq!(config, defaults, "{}={value:?} is rejected", knob.name);
                    assert_eq!(warnings.len(), 1, "{}={value:?}: {warnings:?}", knob.name);
                    assert!(warnings[0].contains(knob.name), "{}", warnings[0]);
                }
                Some(Ok(canonical)) => {
                    assert!(warnings.is_empty(), "{}={value:?}: {warnings:?}", knob.name);
                    let (expect, _) = parse_str(knob.name, &canonical);
                    assert_eq!(
                        config, expect,
                        "{}={value:?} reads as {canonical:?}",
                        knob.name
                    );
                }
            }
        }
    }
    assert!(
        verdicts.iter().all(|&n| n > 100),
        "unset/rejected/accepted inputs: {verdicts:?}"
    );
}
