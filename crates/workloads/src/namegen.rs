//! Deterministic fake data primitives: person names, company names,
//! street addresses, cities, commodities — plus seeded typo generation.
//!
//! Everything is driven by a caller-supplied `StdRng`, so workloads are
//! bit-for-bit reproducible for a given seed.

use rock_data::rng::StdRng;

pub const FIRST_NAMES: &[&str] = &[
    "Christine",
    "George",
    "Wei",
    "Min",
    "Elena",
    "Tomas",
    "Priya",
    "Jun",
    "Sara",
    "Ivan",
    "Lucia",
    "Omar",
    "Yuki",
    "Ahmed",
    "Nina",
    "Pavel",
    "Mei",
    "Carlos",
    "Anya",
    "David",
];

pub const LAST_NAMES: &[&str] = &[
    "Smith", "Jones", "Wang", "Li", "Garcia", "Novak", "Patel", "Kim", "Berg", "Petrov", "Rossi",
    "Hassan", "Tanaka", "Ali", "Weber", "Volkov", "Chen", "Lopez", "Koch", "Brown",
];

pub const CITIES: &[(&str, &str)] = &[
    ("Beijing", "010"),
    ("Shanghai", "021"),
    ("Shenzhen", "0755"),
    ("Guangzhou", "020"),
    ("Hangzhou", "0571"),
    ("Chengdu", "028"),
    ("Tianjin", "022"),
    ("Nanjing", "025"),
];

pub const STREETS: &[&str] = &[
    "Beijing West Road",
    "West Road",
    "Nanjing Road",
    "People Square",
    "Huaihai Road",
    "Century Avenue",
    "Garden Street",
    "Lake View Lane",
    "Harbor Boulevard",
    "Spring Street",
];

pub const COMPANY_STEMS: &[&str] = &[
    "Apex",
    "Northwind",
    "Golden Dragon",
    "Silk Route",
    "Evergreen",
    "Bluewave",
    "Red Lantern",
    "Summit",
    "Harbor Light",
    "Quantum",
];

pub const COMPANY_SUFFIXES: &[&str] = &[
    "Trading Co",
    "Logistics Ltd",
    "Industries",
    "Retail Group",
    "Holdings",
];

pub const COMMODITIES: &[(&str, &str, f64)] = &[
    // (commodity, manufactory, base price)
    ("IPhone 14", "Apple", 6500.0),
    ("IPhone 13", "Apple", 5200.0),
    ("Mate X2", "Huawei", 9800.0),
    ("P50 Pro", "Huawei", 4500.0),
    ("Galaxy S23", "Samsung", 5600.0),
    ("Air Max 270", "Nike", 900.0),
    ("Ultraboost 22", "Adidas", 1100.0),
    ("ThinkPad X1", "Lenovo", 9400.0),
    ("Mi Band 8", "Xiaomi", 250.0),
    ("Kindle Oasis", "Amazon", 2100.0),
];

/// Pick uniformly from a slice.
pub fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    &xs[rng.gen_range(0..xs.len())]
}

/// A street address like "12 Beijing West Road".
pub fn address(rng: &mut StdRng) -> String {
    format!("{} {}", rng.gen_range(1..200), pick(rng, STREETS))
}

/// A company name like "Golden Dragon Trading Co".
pub fn company(rng: &mut StdRng) -> String {
    format!(
        "{} {}",
        pick(rng, COMPANY_STEMS),
        pick(rng, COMPANY_SUFFIXES)
    )
}

/// The `i`-th globally unique company name ("Apex Trading Co 3"): company
/// names are identifying keys in the Bank/Sales workloads (the FDs
/// `name → industry` / `name → sector` must hold on clean data), so
/// generators must not draw colliding names for distinct companies.
pub fn unique_company(i: usize) -> String {
    let stem = COMPANY_STEMS[i % COMPANY_STEMS.len()];
    let suffix = COMPANY_SUFFIXES[(i / COMPANY_STEMS.len()) % COMPANY_SUFFIXES.len()];
    let serial = i / (COMPANY_STEMS.len() * COMPANY_SUFFIXES.len());
    if serial == 0 {
        format!("{stem} {suffix}")
    } else {
        format!("{stem} {suffix} {serial}")
    }
}

/// Inject a realistic typo: swap two adjacent characters, drop one, or
/// duplicate one (uniformly). Strings shorter than 2 come back unchanged.
pub fn typo(rng: &mut StdRng, s: &str) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < 2 {
        return s.to_owned();
    }
    let i = rng.gen_range(0..chars.len() - 1);
    let mut out = chars.clone();
    match rng.gen_range(0..3) {
        0 => out.swap(i, i + 1),
        1 => {
            out.remove(i);
        }
        _ => out.insert(i, chars[i]),
    }
    let cand: String = out.into_iter().collect();
    if cand == s {
        // rare no-op (e.g. swapping equal chars): force a drop
        let mut forced = chars.clone();
        forced.remove(i);
        forced.into_iter().collect()
    } else {
        cand
    }
}

/// Format variation that does NOT change meaning (case/spacing noise) —
/// used to make near-duplicate tuples that ER must still match.
pub fn reformat(rng: &mut StdRng, s: &str) -> String {
    match rng.gen_range(0..3) {
        0 => s.to_uppercase(),
        1 => s.to_lowercase(),
        _ => s.split_whitespace().collect::<Vec<_>>().join("  "),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        assert_eq!(address(&mut a), address(&mut b));
        assert_eq!(company(&mut a), company(&mut b));
    }

    #[test]
    fn typo_changes_string() {
        let mut rng = StdRng::seed_from_u64(1);
        for s in ["Christine", "Beijing West Road", "ab"] {
            for _ in 0..20 {
                let t = typo(&mut rng, s);
                assert_ne!(t, s, "typo must change '{s}'");
            }
        }
        assert_eq!(typo(&mut rng, "x"), "x");
    }

    #[test]
    fn reformat_preserves_tokens() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let r = reformat(&mut rng, "Golden Dragon Trading Co");
            let norm: Vec<String> = r.split_whitespace().map(|w| w.to_lowercase()).collect();
            assert_eq!(norm, vec!["golden", "dragon", "trading", "co"]);
        }
    }

    #[test]
    fn city_area_codes_unique() {
        use rock_data::FxHashSet;
        let codes: FxHashSet<&str> = CITIES.iter().map(|(_, c)| *c).collect();
        assert_eq!(codes.len(), CITIES.len());
    }
}
