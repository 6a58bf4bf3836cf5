//! Deterministic input mutation for negative-path testing: given a valid
//! MiniCU source (or a recorded JSON document), produce broken variants
//! that the reader must reject with an error (or, occasionally, still
//! accept) — never panic.

use proptest::TestRng;

/// Characters likely to break lexing or parsing when spliced in.
const NOISE: &[&str] = &[
    "(", ")", "{", "}", "[", "]", ";", "*", "&", "<", ">", "#", "\"", "'", "@", "$", "`", "%",
    "\\", "\u{7f}",
];

/// Fragments likely to break a JSON reader: string delimiters, escapes
/// (complete, truncated and signed `\u`), multi-byte characters in every
/// UTF-8 width, structure, and numbers that overflow `f64`.
const JSON_NOISE: &[&str] = &[
    "\"", "\\", "\\u", "\\u00", "\\u+041", "\\u00e9", "\\ud834", "\\x", "é", "→", "𝄞", "[", "]",
    "{", "}", ",", ":", "-", "1e999", "null", "\u{0}",
];

/// Apply one random MiniCU-flavoured mutation to `src`. Mutations operate
/// on char boundaries so the result is always valid UTF-8.
pub fn mutate(src: &str, rng: &mut TestRng) -> String {
    mutate_with(src, NOISE, rng)
}

fn mutate_with(src: &str, noise: &[&str], rng: &mut TestRng) -> String {
    let chars: Vec<char> = src.chars().collect();
    if chars.is_empty() {
        return "@".to_string();
    }
    let pos = rng.below(chars.len() as u64) as usize;
    let span_end = |rng: &mut TestRng| (pos + 1 + rng.below(8) as usize).min(chars.len());
    let pick = |rng: &mut TestRng| noise[rng.below(noise.len() as u64) as usize];
    match rng.below(6) {
        // Truncate: unterminated constructs.
        0 => splice(&chars, pos, chars.len(), ""),
        // Delete a span.
        1 => splice(&chars, pos, span_end(rng), ""),
        // Duplicate a span.
        2 => {
            let end = span_end(rng);
            let dup: String = chars[pos..end].iter().collect();
            splice(&chars, end, end, &dup)
        }
        // Replace one char with noise.
        3 => splice(&chars, pos, pos + 1, pick(rng)),
        // Insert noise.
        4 => splice(&chars, pos, pos, pick(rng)),
        // Swap two chars.
        _ => {
            let q = rng.below(chars.len() as u64) as usize;
            let mut out = chars.clone();
            out.swap(pos, q);
            out.into_iter().collect()
        }
    }
}

/// `chars` with `chars[from..to]` replaced by `insert`.
fn splice(chars: &[char], from: usize, to: usize, insert: &str) -> String {
    let mut out: String = chars[..from].iter().collect();
    out.push_str(insert);
    out.extend(&chars[to..]);
    out
}

/// Apply 1..=3 stacked mutations.
pub fn mutate_some(src: &str, rng: &mut TestRng) -> String {
    stacked(src, NOISE, rng)
}

/// Apply 1..=3 stacked mutations to a JSON document: the same
/// truncation, deletion, duplication and swaps as [`mutate`], with
/// [`JSON_NOISE`].
pub fn mutate_json_some(doc: &str, rng: &mut TestRng) -> String {
    stacked(doc, JSON_NOISE, rng)
}

fn stacked(src: &str, noise: &[&str], rng: &mut TestRng) -> String {
    let mut out = src.to_string();
    for _ in 0..1 + rng.below(3) {
        out = mutate_with(&out, noise, rng);
    }
    out
}
