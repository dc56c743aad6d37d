//! A tiny `--flag value` argument parser (keeps the harness free of CLI
//! dependencies; every binary documents its flags with `--help`).

use std::collections::BTreeMap;

/// Parsed command-line flags.
#[derive(Debug, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parse `std::env::args()`, treating `--key value` as a flag and a
    /// bare `--key` (followed by another flag or nothing) as a switch.
    pub fn parse() -> Self {
        Self::from_tokens(std::env::args().skip(1))
    }

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

    /// A numeric flag with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.flags.get(key).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}"))
        })
    }

    /// A u64 flag with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.flags.get(key).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}"))
        })
    }

    /// A float flag with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.flags.get(key).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| panic!("--{key} expects a number, got {v:?}"))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::from_tokens(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_switches_lists() {
        let a = parse("--k 8 --full --ells 1,2,4");
        assert_eq!(a.get_usize("k", 0), 8);
        assert!(a.has("full"));
        assert!(!a.has("quick"));
        assert_eq!(a.get_list("ells", &[9]), vec![1, 2, 4]);
        assert_eq!(a.get_list("ks", &[9]), vec![9]);
        assert_eq!(a.get_u64("seed", 7), 7);
        assert_eq!(a.get_f64("alpha", 0.5), 0.5);
        assert_eq!(parse("--corrupt 0,1").get_str("corrupt", ""), "0,1");
        assert_eq!(parse("").get_str("lie", "none"), "none");
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn bad_value_panics() {
        let a = parse("--k banana");
        let _ = a.get_usize("k", 0);
    }
}
