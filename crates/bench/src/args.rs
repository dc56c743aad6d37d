//! A tiny `--flag value` argument parser (keeps the harness free of CLI
//! dependencies; every `paper` subcommand documents its flags in its module
//! doc).

use std::collections::BTreeMap;
use std::str::FromStr;

/// Parsed command-line flags.
#[derive(Debug, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parse from an explicit iterator (testable).
    pub fn from_tokens(iter: impl IntoIterator<Item = String>) -> Self {
        let tokens: Vec<String> = iter.into_iter().collect();
        let mut args = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            let Some(key) = t.strip_prefix("--") else {
                panic!("unexpected positional argument {t:?}");
            };
            if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                args.flags.insert(key.to_string(), tokens[i + 1].clone());
                i += 2;
            } else {
                args.switches.push(key.to_string());
                i += 1;
            }
        }
        args
    }

    /// A switch like `--full`.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// A flag parsed as `T`, or `default` when absent. A value that does not
    /// parse as `T` — malformed, or out of `T`'s range — panics.
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> T {
        self.flags.get(key).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| panic!("--{key} expects {}, got {v:?}", expected::<T>()))
        })
    }

    /// A string flag with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.flags.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// A comma-separated list of integers.
    pub fn get_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        self.flags.get(key).map_or_else(
            || default.to_vec(),
            |v| {
                v.split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| panic!("--{key} expects integers, got {s:?}"))
                    })
                    .collect()
            },
        )
    }
}

/// How a flag of type `T` is named in the parse-error message.
fn expected<T>() -> String {
    match std::any::type_name::<T>() {
        "f32" | "f64" => "a number".to_string(),
        ty => format!("an integer ({ty})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::from_tokens(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_switches_lists() {
        let a = parse("--k 8 --full --ells 1,2,4");
        assert_eq!(a.get("k", 0usize), 8);
        assert!(a.has("full"));
        assert!(!a.has("quick"));
        assert_eq!(a.get_list("ells", &[9]), vec![1, 2, 4]);
        assert_eq!(a.get_list("ks", &[9]), vec![9]);
        assert_eq!(a.get("seed", 7u64), 7);
        assert_eq!(a.get("alpha", 0.5f64), 0.5);
        assert_eq!(parse("--corrupt 0,1").get_str("corrupt", ""), "0,1");
        assert_eq!(parse("").get_str("lie", "none"), "none");
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn bad_value_panics() {
        let a = parse("--k banana");
        let _ = a.get("k", 0usize);
    }

    #[test]
    #[should_panic(expected = "--loss expects an integer (u16), got \"66000\"")]
    fn out_of_range_value_panics() {
        let _ = parse("--loss 66000").get("loss", 0u16);
    }
}
