//! The string and number helpers every hand-rolled `format!` JSON emitter
//! in the workspace writes through. The library reads no JSON: each
//! emitter's tests pin its output as exact text.

use std::fmt::Write as _;

/// Escapes `s` as a JSON string literal, quotes included.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number with six decimals (`null` for
/// non-finite values, which JSON cannot carry).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_numbers_write_exact_literals() {
        // A quote, a backslash and every control character are escaped;
        // DEL and non-ASCII scalars pass through as they are.
        for (input, literal) in [
            ("", r#""""#),
            ("plain", r#""plain""#),
            ("q\" b\\", r#""q\" b\\""#),
            ("a\nb\tc\r", r#""a\u000ab\u0009c\u000d""#),
            ("\u{1}\u{1f} \u{7f}", "\"\\u0001\\u001f \u{7f}\""),
            ("é \u{1F680}", "\"é \u{1F680}\""),
        ] {
            assert_eq!(json_str(input), literal, "{input:?}");
        }
        for (value, literal) in [
            (0.5, "0.500000"),
            (-1234.5, "-1234.500000"),
            (1e-7, "0.000000"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(json_num(value), literal, "{value}");
        }
    }
}
