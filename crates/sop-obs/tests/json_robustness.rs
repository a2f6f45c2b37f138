//! The JSON reader takes outside input — cache entries, reports, diff
//! inputs, heartbeat lines — so it must never panic or abort on any of
//! it. A seeded byte-mutation loop over arbitrary bytes and over a real
//! committed report checks that every input either parses or returns a
//! `ParseError`, and that whatever the printer writes parses back to an
//! equal value.

use sop_obs::json::{parse, MAX_DEPTH};
use sop_obs::Json;

/// A committed `sop-report/v1` document: the bench history.
const REPORT: &str = include_str!("../../../BENCH_sim.json");

/// xorshift64*: a tiny seeded stream, so every failure replays.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A byte biased toward the ones that steer the parser.
    fn byte(&mut self) -> u8 {
        const STEER: &[u8] = b"[]{}\",:\\u0123456789abcdefE+-.eh tnrulfs\n\x00\x7f";
        match self.below(4) {
            0 => self.next() as u8,
            _ => STEER[self.below(STEER.len())],
        }
    }
}

/// Parses `bytes` (as the lossy UTF-8 a reader would see) and, when it
/// parses, checks the printed forms read back to the same value.
fn check(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(value) = parse(&text) {
        assert_round_trips(&value);
    }
}

fn assert_round_trips(value: &Json) {
    for printed in [value.to_compact_string(), value.to_pretty_string()] {
        let back = parse(&printed).unwrap_or_else(|e| panic!("{e}: printed {printed:?}"));
        assert_eq!(&back, value, "printed {printed:?}");
    }
}

#[test]
fn arbitrary_bytes_never_panic() {
    let mut rng = Rng(0x5eed_0001);
    for _ in 0..20_000 {
        let len = rng.below(48);
        let bytes: Vec<u8> = (0..len).map(|_| rng.byte()).collect();
        check(&bytes);
    }
}

#[test]
fn mutated_reports_never_panic() {
    assert!(parse(REPORT).is_ok(), "the committed report parses");
    let mut rng = Rng(0x5eed_0002);
    for _ in 0..400 {
        let mut bytes = REPORT.as_bytes().to_vec();
        for _ in 0..1 + rng.below(8) {
            let at = rng.below(bytes.len() + 1);
            match rng.below(5) {
                0 if at < bytes.len() => bytes[at] = rng.byte(),
                1 => bytes.insert(at, rng.byte()),
                2 => {
                    let end = (at + rng.below(64)).min(bytes.len());
                    bytes.drain(at..end);
                }
                3 => {
                    let end = (at + rng.below(64)).min(bytes.len());
                    let chunk = bytes[at..end].to_vec();
                    bytes.splice(at..at, chunk);
                }
                _ => bytes.truncate(at),
            }
        }
        check(&bytes);
    }
}

#[test]
fn hostile_nesting_is_an_error_not_an_abort() {
    for open in ["[", "{\"k\":", "[{\"k\":"] {
        let deep = open.repeat(50_000);
        assert!(parse(&deep).is_err(), "{open}… x50000");
    }
    let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
    assert!(parse(&nested(MAX_DEPTH)).is_ok());
    let err = parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
    assert!(err.message.contains("nesting"), "{err}");
}

/// A random value; `Int` only carries negatives (a non-negative integer
/// prints and re-parses as `UInt`), and floats are finite.
fn value(rng: &mut Rng, depth: usize) -> Json {
    let leaf = depth == 0 || rng.below(3) == 0;
    match rng.below(if leaf { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::UInt(rng.next() >> rng.below(64)),
        3 => Json::Int(-((rng.next() >> (1 + rng.below(63))) as i64) - 1),
        4 => {
            let f = f64::from_bits(rng.next());
            Json::Num(if f.is_finite() { f } else { 0.5 })
        }
        5 => Json::Str(
            (0..rng.below(12))
                .map(|_| char::from_u32(rng.below(0x3000) as u32).unwrap_or('?'))
                .collect(),
        ),
        6 => Json::Arr((0..rng.below(5)).map(|_| value(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.below(5))
                .map(|i| (format!("k{i}\"\\"), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn printer_output_parses_back_to_an_equal_value() {
    let mut rng = Rng(0x5eed_0003);
    for _ in 0..2_000 {
        assert_round_trips(&value(&mut rng, 5));
    }
}
