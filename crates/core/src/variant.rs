//! The Rock ablation variants (paper §6).

use rock_detect::detect::{consequence_kind, ErrorKind};
use rock_rees::{Rule, RuleSet};

/// Which system variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Full Rock: unified chase, ML predicates, polynomial pipeline.
    Rock,
    /// No ML predicates anywhere (and no polynomial pipeline).
    RockNoMl,
    /// ER → CR → MI → TD executed task-by-task, looping to fixpoint.
    RockSeq,
    /// ER, CR, MI, TD executed once each, no interaction loop.
    RockNoC,
}

impl Variant {
    pub fn all() -> [Variant; 4] {
        [
            Variant::Rock,
            Variant::RockNoMl,
            Variant::RockSeq,
            Variant::RockNoC,
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            Variant::Rock => "Rock",
            Variant::RockNoMl => "RocknoML",
            Variant::RockSeq => "Rockseq",
            Variant::RockNoC => "RocknoC",
        }
    }

    /// Does this variant use ML predicates?
    pub fn uses_ml(&self) -> bool {
        !matches!(self, Variant::RockNoMl)
    }

    /// Does this variant iterate the chase to fixpoint?
    pub fn iterates(&self) -> bool {
        !matches!(self, Variant::RockNoC)
    }
}

/// Partition a rule set by task kind (the ER/CR/MI/TD split RockSeq and
/// RockNoC schedule by).
pub fn split_by_task(rules: &RuleSet) -> [RuleSet; 4] {
    let mut out = [
        RuleSet::default(),
        RuleSet::default(),
        RuleSet::default(),
        RuleSet::default(),
    ];
    for r in rules.iter() {
        let idx = match consequence_kind(r) {
            ErrorKind::Er => 0,
            ErrorKind::Cr => 1,
            ErrorKind::Mi => 2,
            ErrorKind::Td => 3,
        };
        out[idx].push(r.clone());
    }
    out
}

/// The rule set a variant actually runs.
pub fn effective_rules(variant: Variant, rules: &RuleSet) -> RuleSet {
    match variant {
        Variant::RockNoMl => rules.without_ml(),
        _ => rules.clone(),
    }
}

/// Order rules deterministically by name (variants must not depend on
/// input order; Church–Rosser is property-tested on top of this).
pub fn sorted_rules(rules: &RuleSet) -> RuleSet {
    let mut rs: Vec<Rule> = rules.rules.clone();
    rs.sort_by(|a, b| a.name.cmp(&b.name));
    RuleSet::new(rs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrType, DatabaseSchema, RelationSchema};
    use rock_rees::parse_rules;

    fn rules() -> RuleSet {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[("a", AttrType::Str), ("b", AttrType::Str)],
        )]);
        RuleSet::new(
            parse_rules(
                "rule er: T(t) && T(s) && t.a = s.a -> t.eid = s.eid\n\
                 rule cr: T(t) && T(s) && t.a = s.a -> t.b = s.b\n\
                 rule mi: T(t) && null(t.b) -> t.b = 'x'\n\
                 rule td: T(t) && T(s) && t.a = 'u' && s.a = 'v' -> t <=[a] s\n\
                 rule ml: T(t) && T(s) && ml:M(t[a], s[a]) -> t.eid = s.eid",
                &schema,
            )
            .unwrap(),
        )
    }

    #[test]
    fn split_assigns_each_kind() {
        let [er, cr, mi, td] = split_by_task(&rules());
        assert_eq!(er.len(), 2); // er + ml
        assert_eq!(cr.len(), 1);
        assert_eq!(mi.len(), 1);
        assert_eq!(td.len(), 1);
    }

    #[test]
    fn noml_variant_drops_ml_rules() {
        let r = rules();
        assert_eq!(effective_rules(Variant::RockNoMl, &r).len(), 4);
        assert_eq!(effective_rules(Variant::Rock, &r).len(), 5);
        assert!(Variant::Rock.uses_ml());
        assert!(!Variant::RockNoMl.uses_ml());
        assert!(!Variant::RockNoC.iterates());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Variant::Rock.name(), "Rock");
        assert_eq!(Variant::RockNoMl.name(), "RocknoML");
        assert_eq!(Variant::RockSeq.name(), "Rockseq");
        assert_eq!(Variant::RockNoC.name(), "RocknoC");
        assert_eq!(Variant::all().len(), 4);
    }

    #[test]
    fn sorted_rules_deterministic() {
        let r = rules();
        let s = sorted_rules(&r);
        let names: Vec<&str> = s.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["cr", "er", "mi", "ml", "td"]);
    }
}
