//! The workspace's JSON corner: the one string escape every hand-rolled
//! writer uses.
//!
//! The workspace is hermetic (no serde). Writing stays hand-rolled at the
//! call sites (trace JSONL, run reports), but
//! every string they embed goes through [`escape`]. Nothing in the
//! workspace reads JSON back; the repo benchmark has its own reader.

use std::fmt::Write as _;

/// Escapes a string for embedding between the quotes of a JSON string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_every_json_metacharacter() {
        assert_eq!(escape("plain ‰ text"), "plain ‰ text");
        assert_eq!(escape("a\"b\\c\nd\re\tf"), "a\\\"b\\\\c\\nd\\re\\tf");
        assert_eq!(escape("\u{1}\u{1f}"), "\\u0001\\u001f");
    }
}
