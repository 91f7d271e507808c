//! Minimal argument parsing (no external dependencies).

/// The most threads a thread-count option may ask for. Every thread
/// count below it is spawned as asked, and each stream worker also
/// pre-sizes pipe segments, so an unchecked count is a way to ask for
/// 100 k OS threads and gigabytes of buffers.
pub const MAX_THREADS: usize = 256;

/// Parsed command line: a subcommand, positional arguments and
/// `--flag[=| ]value` options.
///
/// Options are kept in order and may repeat (e.g. several `--query`
/// flags for a batch); [`Args::get`] returns the last occurrence,
/// [`Args::get_all`] all of them.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
    /// `--name value` options in command-line order; bare `--name` maps
    /// to `"true"`.
    pub options: Vec<(String, String)>,
}

impl Args {
    /// Parses `std::env::args` (skipping the binary name).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an iterator of arguments.
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut iter = args.peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if let Some((k, v)) = name.split_once('=') {
                    out.options.push((k.to_string(), v.to_string()));
                } else if iter
                    .peek()
                    .map(|next| !next.starts_with("--"))
                    .unwrap_or(false)
                {
                    let v = iter.next().expect("peeked");
                    out.options.push((name.to_string(), v));
                } else {
                    out.options.push((name.to_string(), "true".to_string()));
                }
            } else if out.command.is_none() {
                out.command = Some(arg);
            } else {
                out.positional.push(arg);
            }
        }
        out
    }

    /// A string option (the last occurrence when repeated).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every occurrence of a repeatable option, in command-line order.
    /// (Callers that must preserve the interleaving of *several*
    /// repeatable options — like `query`/`query-str` — walk
    /// [`Args::options`] directly instead.)
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.options
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// A required string option, with an error message naming it.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    /// A numeric option with a default.
    pub fn get_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("option --{name}: cannot parse '{s}'")),
        }
    }

    /// A thread-count option with a default: at most [`MAX_THREADS`],
    /// where `0` is left to the command (it means one per core, or one).
    pub fn get_threads(&self, name: &str, default: usize) -> Result<usize, String> {
        let n = self.get_num(name, default)?;
        if n > MAX_THREADS {
            return Err(format!(
                "option --{name}: {n} exceeds the limit of {MAX_THREADS} threads"
            ));
        }
        Ok(n)
    }

    /// A boolean flag (present = true).
    pub fn flag(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Fails on the first option not in `known`, so a misspelled or
    /// retired flag is an error instead of being silently ignored.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(|x| x.to_string()))
    }

    #[test]
    fn command_and_positionals() {
        let a = parse("query q.xml d.xml");
        assert_eq!(a.command.as_deref(), Some("query"));
        assert_eq!(a.positional, vec!["q.xml", "d.xml"]);
    }

    #[test]
    fn options_with_space_and_equals() {
        let a = parse("gen --nodes 1000 --dataset=dblp --verbose");
        assert_eq!(a.get("nodes"), Some("1000"));
        assert_eq!(a.get("dataset"), Some("dblp"));
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn numeric_parsing() {
        let a = parse("query --k 7");
        assert_eq!(a.get_num("k", 1usize).unwrap(), 7);
        assert_eq!(a.get_num("missing", 3usize).unwrap(), 3);
        let bad = parse("query --k seven");
        assert!(bad.get_num("k", 1usize).is_err());
    }

    #[test]
    fn thread_counts_are_capped() {
        let a = parse("query --threads 256 --workers 257");
        assert_eq!(a.get_threads("threads", 1).unwrap(), MAX_THREADS);
        assert_eq!(a.get_threads("missing", 0).unwrap(), 0);
        let err = a.get_threads("workers", 1).unwrap_err();
        assert!(err.contains("--workers") && err.contains("256"), "{err}");
    }

    #[test]
    fn require_reports_name() {
        let a = parse("query");
        let err = a.require("doc").unwrap_err();
        assert!(err.contains("--doc"));
    }

    #[test]
    fn flag_followed_by_flag() {
        let a = parse("query --stats --k 2");
        assert!(a.flag("stats"));
        assert_eq!(a.get_num("k", 0usize).unwrap(), 2);
    }

    #[test]
    fn repeated_options_collect_in_order() {
        let a = parse("query --query a.xml --k 2 --query b.xml --query=c.xml");
        assert_eq!(a.get_all("query"), vec!["a.xml", "b.xml", "c.xml"]);
        // `get` takes the last occurrence; non-repeated options see one.
        assert_eq!(a.get("query"), Some("c.xml"));
        assert_eq!(a.get_all("k"), vec!["2"]);
        assert!(a.get_all("missing").is_empty());
    }
}
