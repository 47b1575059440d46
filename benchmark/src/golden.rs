//! Exact pins: `golden.json` maps workload → seed → metric → value for every
//! metric that must repeat bit-for-bit ([`crate::catalog::EXACT`]). A pinned
//! seed whose run produces another value is a behaviour change, not noise.

use std::path::{Path, PathBuf};

use crate::json::{self, Value};

/// Where the pins live: beside the crate's manifest.
#[must_use]
pub fn default_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json")
}

fn load(path: &Path) -> Result<Value, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Value::Obj(Vec::new())),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Compares `exact` with the pins of `workload` × `seed`. Returns `None`
/// when that pair is not pinned, otherwise the list of mismatches (empty when
/// all pins hold).
///
/// # Errors
///
/// Returns a message when the file exists but cannot be read or parsed.
pub fn check(
    path: &Path,
    workload: &str,
    seed: u64,
    exact: &[(&str, f64)],
) -> Result<Option<Vec<String>>, String> {
    let golden = load(path)?;
    let Some(pins) = golden
        .get(workload)
        .and_then(|w| w.get(&seed.to_string()))
        .and_then(Value::as_obj)
    else {
        return Ok(None);
    };
    let mut mismatches = Vec::new();
    for (name, value) in exact {
        match pins
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_f64())
        {
            Some(Some(pin)) if pin.to_bits() == value.to_bits() => {}
            Some(Some(pin)) => mismatches.push(format!("{name}: pinned {pin}, got {value}")),
            _ => mismatches.push(format!("{name}: not pinned (got {value})")),
        }
    }
    Ok(Some(mismatches))
}

/// Rewrites the pins of `workload` × `seed`, keeping every other entry.
///
/// # Errors
///
/// Returns a message when the file cannot be read, parsed or written.
pub fn update(path: &Path, workload: &str, seed: u64, exact: &[(&str, f64)]) -> Result<(), String> {
    let mut golden = load(path)?;
    let pins = Value::Obj(
        exact
            .iter()
            .map(|(name, value)| ((*name).to_string(), Value::Num(*value)))
            .collect(),
    );
    let mut seeds = golden
        .get(workload)
        .cloned()
        .unwrap_or(Value::Obj(Vec::new()));
    seeds.set(&seed.to_string(), pins);
    golden.set(workload, seeds);
    std::fs::write(path, golden.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_then_check_round_trips_and_reports_moved_pins() {
        let dir = crate::run::default_work_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("golden-test-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let exact = [("leak_rate", 0.1 + 0.2), ("core.csr_merges", 122.0)];
        assert_eq!(check(&path, "w", 1, &exact), Ok(None), "no file, no pins");
        update(&path, "w", 1, &exact).unwrap();
        update(&path, "w", 2017, &[("leak_rate", 0.5)]).unwrap();
        assert_eq!(check(&path, "w", 1, &exact), Ok(Some(Vec::new())));
        assert_eq!(check(&path, "w", 7, &exact), Ok(None), "unpinned seed");
        assert_eq!(check(&path, "other", 1, &exact), Ok(None));
        let moved = [("leak_rate", 0.3), ("core.csr_merges", 122.0), ("new", 1.0)];
        let mismatches = check(&path, "w", 1, &moved).unwrap().unwrap();
        assert_eq!(mismatches.len(), 2, "{mismatches:?}");
        assert!(mismatches[0].starts_with("leak_rate: pinned 0.30000000000000004"));
        assert_eq!(
            check(&path, "w", 2017, &[("leak_rate", 0.5)]),
            Ok(Some(Vec::new()))
        );
        std::fs::remove_file(&path).unwrap();
    }
}
