//! Garbled input at the JSON boundaries: byte-level cuts, flips and
//! splices of a valid serve request line, a committed sampling plan and a
//! rendered search frontier, fed to every parser that reads such text
//! (`protocol::parse_request`, `jsonv::parse`, `sampling::parse_plan`,
//! `search::parse_frontier_json`). Whatever the bytes, each parser must
//! return `Ok` or an `Err` that says something — never panic, and never
//! overflow the 2 MiB stack a serve connection thread runs on.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cobra_bench::jsonv;
use cobra_bench::sampling::parse_plan;
use cobra_bench::search::{
    parse_frontier_json, render_frontier_json, Candidate, Evaluated, SearchConfig, SearchOutcome,
};
use cobra_bench::serve::protocol::parse_request;

/// Deterministic xorshift64* generator, so every failure is reproducible
/// from the printed input.
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

/// Fragments a splice may insert: JSON punctuation, escapes, literals,
/// extreme numbers, control and multi-byte characters.
const SPLICE: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    "\"",
    "\\",
    ":",
    ",",
    "\\u",
    "\\ud800",
    "\\u00e9",
    "null",
    "true",
    "-",
    "1e999",
    "-0",
    "0.5",
    "18446744073709551616",
    "\"op\"",
    "\"slices\"",
    "\"frontier\"",
    "\u{0}",
    "\n",
    " ",
    "é",
    "\u{3000}",
    "[[[[[[[[",
    "{\"a\":{\"b\":",
];

fn committed_plan() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/plans/gcc.plan.json"
    );
    std::fs::read_to_string(path).expect("committed plan is readable")
}

fn rendered_frontier() -> String {
    let member = |topology: &str, mpki: f64| Evaluated {
        cand: Candidate {
            topology: topology.into(),
            ghist_bits: 32,
            lhist_entries: 0,
        },
        mpki,
        per_workload: vec![("gcc".into(), mpki), ("mcf".into(), mpki * 2.0)],
        storage_bits: 8192,
        depth: 3,
    };
    let outcome = SearchOutcome {
        archive: Vec::new(),
        frontier: vec![member("UBTB1 > BIM2", 9.5), member("UBTB1 > TAGE3", 4.25)],
        pruned: 2,
        evaluated: 5,
    };
    render_frontier_json(&SearchConfig::default(), &outcome)
}

/// One garbled copy of `seed`: 1–4 byte-level edits, each a cut (drop a
/// range or truncate), a flip (xor one byte) or a splice (insert a
/// fragment, or a chunk of the seed itself). Invalid UTF-8 is replaced,
/// as a line reader decoding lossily would.
fn garble(rng: &mut Rng, seed: &[u8]) -> String {
    let mut b = seed.to_vec();
    for _ in 0..=rng.below(4) {
        match rng.below(5) {
            0 if !b.is_empty() => {
                let at = rng.below(b.len());
                let len = 1 + rng.below(16.min(b.len() - at));
                b.drain(at..at + len);
            }
            1 => b.truncate(rng.below(b.len() + 1)),
            2 if !b.is_empty() => {
                let at = rng.below(b.len());
                b[at] ^= 1 << rng.below(8);
            }
            3 => {
                let piece = SPLICE[rng.below(SPLICE.len())].as_bytes();
                let at = rng.below(b.len() + 1);
                b.splice(at..at, piece.iter().copied());
            }
            _ if !seed.is_empty() => {
                let from = rng.below(seed.len());
                let len = 1 + rng.below(32.min(seed.len() - from));
                let at = rng.below(b.len() + 1);
                b.splice(at..at, seed[from..from + len].iter().copied());
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Runs every parser on `input`: none may panic, and every `Err` must
/// carry a message. Returns how many parsers accepted the input.
fn check_all(input: &str) -> usize {
    let verdicts = catch_unwind(AssertUnwindSafe(|| {
        [
            parse_request(input).map(drop),
            jsonv::parse(input).map(drop).map_err(|e| e.to_string()),
            parse_plan(input).map(drop),
            parse_frontier_json(input).map(drop),
        ]
    }))
    .unwrap_or_else(|_| panic!("a parser panicked on {input:?}"));
    for v in &verdicts {
        if let Err(msg) = v {
            assert!(!msg.is_empty(), "empty error message for {input:?}");
        }
    }
    verdicts.iter().filter(|v| v.is_ok()).count()
}

fn garble_every_boundary() {
    let submit =
        "{\"op\":\"submit\",\"id\":7,\"design\":\"B2\",\"workload\":\"gcc\",\"insts\":20000}";
    let plan = committed_plan();
    let frontier = rendered_frontier();

    // The seeds themselves are valid for their own parser.
    assert!(parse_request(submit).is_ok());
    assert!(parse_plan(&plan).is_ok(), "committed plan parses");
    assert!(
        parse_frontier_json(&frontier).is_ok(),
        "rendered frontier parses"
    );

    // Nesting far past the parser's cap fails cleanly.
    let deep_submit = format!("{{\"op\":\"submit\",\"id\":{}", "[".repeat(10_000));
    assert_eq!(check_all(&deep_submit), 0);
    assert_eq!(check_all(&"[".repeat(1_000_000)), 0);
    assert_eq!(check_all(&"{\"a\":".repeat(100_000)), 0);

    let mut rng = Rng(0x00c0_b4a9_4b1e_5eed);
    let mut accepted = 0;
    for seed in [submit, plan.as_str(), frontier.as_str()] {
        for _ in 0..1500 {
            accepted += check_all(&garble(&mut rng, seed.as_bytes()));
        }
    }
    // Some edits (whitespace, a flipped digit) leave a valid document:
    // the garbling exercises the accepting paths too.
    assert!(accepted > 0, "no garbled input was accepted by any parser");
}

#[test]
fn garbled_json_is_rejected_with_a_message_never_a_panic() {
    // A serve connection thread runs on the default 2 MiB stack; run the
    // whole sweep on one of the same size.
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(garble_every_boundary)
        .expect("spawn")
        .join()
        .expect("garbled input panicked or overflowed the stack");
}
