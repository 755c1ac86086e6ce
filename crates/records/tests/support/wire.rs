//! Seeded values and the round-trip check shared by the wire-table
//! property tests of `felix-records`, `felix` and `felix-serve` (included
//! with `#[path]`). The values carry what each encoding must survive: NaN
//! payloads, ±0.0 and ±∞ in bit-pattern fields, finite values in number
//! fields, 0 and `u64::MAX` in hex fields, empty and non-ASCII strings,
//! empty arrays.

// Each including test uses a different subset.
#![allow(dead_code)]

use felix_records::Json;
use std::fmt::Debug;

/// Seeded xorshift64 with the edge values each encoding must carry.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A value for a hex field.
    pub fn hex(&mut self) -> u64 {
        match self.next() % 4 {
            0 => 0,
            1 => u64::MAX,
            _ => self.next(),
        }
    }

    /// A value for a bit-pattern field: any bits at all.
    pub fn bits(&mut self) -> f64 {
        let edges = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        match self.next() % 8 {
            i @ 0..=4 => edges[i as usize],
            5 => f64::from_bits(0x7ff8_dead_beef_0001), // a quiet NaN's payload
            6 => f64::from_bits(0xfff0_0000_0000_0001), // a negative signalling NaN
            _ => f64::from_bits(self.next()),
        }
    }

    /// A value for a number field: finite, ±0.0 included.
    pub fn num(&mut self) -> f64 {
        match self.next() % 4 {
            0 => -0.0,
            1 => 0.0,
            _ => Some(f64::from_bits(self.next())).filter(|v| v.is_finite()).unwrap_or(0.1),
        }
    }

    /// A count, up to the 2^53 a JSON number holds exactly.
    pub fn count(&mut self) -> usize {
        match self.next() % 3 {
            0 => 0,
            1 => (1 << 53) - 1,
            _ => (self.next() % 1000) as usize,
        }
    }

    pub fn text(&mut self) -> String {
        match self.next() % 4 {
            0 => String::new(),
            1 => "調度 ü 😀".to_string(),
            2 => "\"\\\n\u{1f}".to_string(),
            _ => format!("t{}", self.next() % 100),
        }
    }

    /// Zero to three items, so empty arrays occur.
    pub fn list<T>(&mut self, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..self.next() % 4).map(|_| item(self)).collect()
    }
}

/// `value` decodes from its own encoding to the same bytes (so every bit
/// pattern survives) and the same value, and a copy of its document
/// without any one key except `optional` does not decode. Returns each
/// removed key with its decode error.
pub fn round_trips<T: Debug>(
    value: &T,
    to_json: impl Fn(&T) -> Json,
    from_json: impl Fn(&Json) -> Result<T, String>,
    optional: &[&str],
) -> Vec<(String, String)> {
    let text = to_json(value).write();
    let doc = Json::parse(&text).expect("parse");
    let back = from_json(&doc).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(to_json(&back).write(), text);
    assert_eq!(format!("{back:?}"), format!("{value:?}"));
    let Json::Obj(fields) = doc else { panic!("not an object: {text}") };
    let required = (0..fields.len()).filter(|&i| !optional.contains(&fields[i].0.as_str()));
    required
        .map(|i| {
            let mut cut = fields.clone();
            let (key, _) = cut.remove(i);
            let err = from_json(&Json::Obj(cut)).err();
            let err = err.unwrap_or_else(|| panic!("decoded without {key:?}: {text}"));
            (key, err)
        })
        .collect()
}
