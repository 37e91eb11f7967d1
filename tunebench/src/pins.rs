//! Pinned tuning results. At the default tuner seed every tune of every
//! seed slot must reproduce its line of `pins.tsv` exactly: tuned
//! virtual time (bits), a digest of the tuned config, trials and
//! rejected trials. `--print-pins` prints the current lines to refresh
//! the file after an intended change to the search.

use crate::stats::fnv1a64;
use petal_tuner::Tuned;

/// The committed pins.
pub const PINS: &str = include_str!("../pins.tsv");

/// The pin line of one tune: tab-separated workload, seed slot,
/// benchmark, machine, `cold`/`warm`, then the pinned values.
#[must_use]
pub fn pin_line(
    workload: &str,
    slot: usize,
    bench: &str,
    machine: &str,
    warm: bool,
    tuned: &Tuned,
) -> String {
    format!(
        "{workload}\t{slot}\t{bench}\t{machine}\t{}\t{:#018x}\t{:#018x}\t{}\t{}",
        if warm { "warm" } else { "cold" },
        tuned.time_secs.to_bits(),
        fnv1a64(tuned.config.to_string().as_bytes()),
        tuned.stats.trials,
        tuned.stats.rejected,
    )
}

/// Check `line` against the pin with the same key (first five fields)
/// in `pins`.
///
/// # Errors
/// When no pin has the key, or the pinned values differ.
pub fn check(pins: &str, line: &str) -> Result<(), String> {
    fn key(l: &str) -> Vec<&str> {
        l.split('\t').take(5).collect()
    }
    let want = key(line);
    match pins.lines().find(|p| !p.starts_with('#') && key(p) == want) {
        None => Err(format!("no pin for `{}`", want.join(" / "))),
        Some(pin) if pin == line => Ok(()),
        Some(pin) => Err(format!("pinned `{pin}`, got `{line}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petal_core::Config;
    use petal_tuner::TuningStats;

    fn tuned(time_secs: f64, trials: usize) -> Tuned {
        Tuned {
            config: Config::default(),
            time_secs,
            stats: TuningStats { trials, ..TuningStats::default() },
        }
    }

    #[test]
    fn check_matches_by_key_and_compares_values() {
        let a = pin_line("w", 0, "Black-Scholes", "Desktop", false, &tuned(1.5, 10));
        let pins = format!("# header\n{a}\n");
        assert_eq!(check(&pins, &a), Ok(()));
        let slower = pin_line("w", 0, "Black-Scholes", "Desktop", false, &tuned(1.6, 10));
        assert!(check(&pins, &slower).unwrap_err().starts_with("pinned"));
        let fewer = pin_line("w", 0, "Black-Scholes", "Desktop", false, &tuned(1.5, 9));
        assert!(check(&pins, &fewer).is_err());
        let warm = pin_line("w", 0, "Black-Scholes", "Desktop", true, &tuned(1.5, 10));
        assert!(check(&pins, &warm).unwrap_err().starts_with("no pin"));
        let other_slot = pin_line("w", 1, "Black-Scholes", "Desktop", false, &tuned(1.5, 10));
        assert!(check(&pins, &other_slot).is_err());
    }

    #[test]
    fn committed_pins_are_well_formed() {
        let mut keys = std::collections::HashSet::new();
        for line in PINS.lines().filter(|l| !l.starts_with('#')) {
            let fields: Vec<&str> = line.split('\t').collect();
            assert_eq!(fields.len(), 9, "{line}");
            assert!(fields[5].starts_with("0x") && fields[6].starts_with("0x"), "{line}");
            assert!(keys.insert(fields[..5].join("\t")), "duplicate pin {line}");
        }
    }
}
