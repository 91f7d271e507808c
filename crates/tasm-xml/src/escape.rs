//! XML character escaping and entity resolution.
//!
//! Supports the five predefined entities (`&lt; &gt; &amp; &quot; &apos;`)
//! and numeric character references (`&#NN;`, `&#xHH;`). Unknown entities
//! are passed through verbatim (lenient mode, appropriate for data-centric
//! corpora like DBLP which use many Latin entities).

use std::borrow::Cow;

/// Escapes text content: `&`, `<`, `>`.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes an attribute value for double-quoted attributes: text escapes
/// plus `"`.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Resolves entity and character references in `s`, copying only
/// when it holds a `&`.
///
/// Unknown named entities are kept verbatim (including the `&`/`;`), so no
/// data is lost on real-world documents.
pub fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    unescape_into(s, &mut out);
    Cow::Owned(out)
}

/// Appends `s` to `out` with its references resolved, as [`unescape`].
pub(crate) fn unescape_into(s: &str, out: &mut String) {
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        // Find the terminating ';' within a sane distance.
        let end = rest[1..]
            .char_indices()
            .take(32)
            .find(|&(_, c)| c == ';')
            .map(|(j, _)| 1 + j);
        let Some(end) = end else {
            out.push('&');
            rest = &rest[1..];
            continue;
        };
        let entity = &rest[1..end];
        let resolved: Option<char> = match entity {
            "lt" => Some('<'),
            "gt" => Some('>'),
            "amp" => Some('&'),
            "quot" => Some('"'),
            "apos" => Some('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                u32::from_str_radix(&entity[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
            }
            _ if entity.starts_with('#') => {
                entity[1..].parse::<u32>().ok().and_then(char::from_u32)
            }
            _ => None,
        };
        match resolved {
            Some(c) => out.push(c),
            // Unknown entity: keep verbatim.
            None => out.push_str(&rest[..=end]),
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_text_basics() {
        assert_eq!(escape_text("a < b & c > d"), "a &lt; b &amp; c &gt; d");
        assert_eq!(escape_text("plain"), "plain");
    }

    #[test]
    fn escape_attr_quotes() {
        assert_eq!(escape_attr(r#"say "hi""#), "say &quot;hi&quot;");
    }

    #[test]
    fn unescape_predefined() {
        assert_eq!(
            unescape("&lt;tag&gt; &amp; &quot;x&quot; &apos;y&apos;"),
            "<tag> & \"x\" 'y'"
        );
    }

    #[test]
    fn unescape_numeric() {
        assert_eq!(unescape("&#65;&#x42;&#x63;"), "ABc");
        assert_eq!(unescape("&#x1F600;"), "😀");
    }

    #[test]
    fn unescape_unknown_entities_kept() {
        assert_eq!(unescape("M&uuml;ller"), "M&uuml;ller");
        assert_eq!(unescape("a & b"), "a & b"); // bare ampersand, lenient
    }

    #[test]
    fn unescape_invalid_numeric_kept() {
        assert_eq!(unescape("&#xZZ;"), "&#xZZ;");
        assert_eq!(unescape("&#99999999;"), "&#99999999;");
    }

    #[test]
    fn round_trip_text() {
        for s in ["", "hello", "<a & b>", "🎉 & <x>"] {
            assert_eq!(unescape(&escape_text(s)), s);
        }
    }

    #[test]
    fn round_trip_attr() {
        for s in ["", r#"a "quoted" value"#, "<&>"] {
            assert_eq!(unescape(&escape_attr(s)), s);
        }
    }

    #[test]
    fn multibyte_passthrough() {
        assert_eq!(unescape("日本語 & ascii"), "日本語 & ascii");
    }
}
