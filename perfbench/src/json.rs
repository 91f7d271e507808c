//! The few JSON encoders the harness needs.

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn string_list(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| string(s)).collect();
    format!("[{}]", cells.join(", "))
}

/// A finite number with all its digits (`NaN` and infinities become 0,
/// which JSON cannot carry otherwise).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn escapes_quotes_and_controls() {
        assert_eq!(super::string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(super::number(1.5), "1.5");
        assert_eq!(super::number(f64::NAN), "0");
    }
}
