//! The **Logistics** application (paper §6): "a top-tier logistics company
//! … one commercial dataset with 1 table and 16 millions of tuples. Four
//! tasks were evaluated: (a) RS for the street information of recipients,
//! (b) RR for cleaning the residential area of recipients, (c) SN that
//! cleans seller names, and (d) RClean for cleaning all the errors above."
//!
//! Synthetic shape: one wide `Shipment` table. Each real-world shipment
//! produces several scan events (rows), so intra-entity redundancy exists
//! for CR majority repair; `city → region` is a clean FD for RR; sellers
//! have stable ids (`seller_id → seller`) for SN; the `status` attribute
//! carries timestamps and injected stale values for TD; the shipment KG
//! links sellers to their registered city for MI extraction.

use crate::inject::Injector;
use crate::namegen::{self, pick};
use crate::workload::{GenConfig, MlHint, Task, Workload};
use rock_data::{
    rng::StdRng, AttrId, AttrType, Database, DatabaseSchema, Eid, RelId, RelationSchema, Timestamp,
    Value,
};
use rock_kg::Graph;
use rock_ml::correlation::{CorrelationModel, ValuePredictor};
use rock_ml::pair::NgramPairModel;
use rock_ml::rank::{CurrencyConstraint, RankModel};
use rock_ml::ModelRegistry;
use rock_rees::{parse_rules, RuleSet};
use std::sync::Arc;

/// Attribute indices of the Shipment table (kept in one place; the rules
/// below reference the names).
pub mod attrs {
    pub const ORDER_NO: u16 = 0;
    pub const RECIPIENT: u16 = 1;
    pub const STREET: u16 = 2;
    pub const CITY: u16 = 3;
    pub const REGION: u16 = 4;
    pub const SELLER_ID: u16 = 5;
    pub const SELLER: u16 = 6;
    pub const STATUS: u16 = 7;
}

fn schema() -> DatabaseSchema {
    DatabaseSchema::new(vec![RelationSchema::of(
        "Shipment",
        &[
            ("order_no", AttrType::Str),
            ("recipient", AttrType::Str),
            ("street", AttrType::Str),
            ("city", AttrType::Str),
            ("region", AttrType::Str),
            ("seller_id", AttrType::Str),
            ("seller", AttrType::Str),
            ("status", AttrType::Str),
        ],
    )])
}

const REGIONS: &[(&str, &str)] = &[
    ("Beijing", "North"),
    ("Tianjin", "North"),
    ("Shanghai", "East"),
    ("Hangzhou", "East"),
    ("Nanjing", "East"),
    ("Shenzhen", "South"),
    ("Guangzhou", "South"),
    ("Chengdu", "West"),
];

const STATUSES: &[&str] = &["created", "in_transit", "delivered"];

/// Curated REE++s. Task tags: rs_*, rr_*, sn_*, td_*.
const RULES: &str = "\
rule rs_er: Shipment(t) && Shipment(s) && t.order_no = s.order_no -> t.eid = s.eid
rule rs_street: Shipment(t) && Shipment(s) && t.order_no = s.order_no -> t.street = s.street
rule rs_ml: Shipment(t) && Shipment(s) && ml:Maddr(t[street], s[street]) && t.recipient = s.recipient && t.city = s.city -> t.eid = s.eid
rule rr_fd: Shipment(t) && Shipment(s) && t.city = s.city -> t.region = s.region
rule rr_mi: Shipment(t) && null(t.region) -> t.region = predict:Mregion(t[city])
rule sn_fd: Shipment(t) && Shipment(s) && t.seller_id = s.seller_id -> t.seller = s.seller
rule td_status: Shipment(t) && Shipment(s) && t.order_no = s.order_no && t.status = 'created' && s.status = 'delivered' -> t <=[status] s
rule td_rank: Shipment(t) && Shipment(s) && t.order_no = s.order_no && rank:Mstatus(t, s, <=[status]) -> t <=[status] s
";

/// Generate the Logistics workload.
pub fn generate(cfg: &GenConfig) -> Workload {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let schema = schema();
    let mut clean = Database::new(&schema);
    let rel = RelId(0);

    // sellers with stable ids
    let n_sellers = (cfg.rows / 20).max(3);
    let sellers: Vec<(String, String)> = (0..n_sellers)
        .map(|i| (format!("S{i:04}"), namegen::company(&mut rng)))
        .collect();

    // shipments: each produces 2–4 scan-event rows sharing an entity id
    let n_shipments = cfg.rows / 3;
    {
        let r = clean.relation_mut(rel);
        for ship in 0..n_shipments {
            let order_no = format!("ORD-{ship:06}");
            let recipient = format!(
                "{} {}",
                pick(&mut rng, namegen::FIRST_NAMES),
                pick(&mut rng, namegen::LAST_NAMES)
            );
            let street = namegen::address(&mut rng);
            let (city, region) = *pick(&mut rng, REGIONS);
            let (sid, seller) = pick(&mut rng, &sellers).clone();
            let events = rng.gen_range(2..=4usize);
            for ev in 0..events {
                let status = STATUSES[ev.min(STATUSES.len() - 1)];
                let tid = r
                    .insert(
                        Eid(ship as u32),
                        vec![
                            Value::str(&order_no),
                            Value::str(&recipient),
                            Value::str(&street),
                            Value::str(city),
                            Value::str(region),
                            Value::str(&sid),
                            Value::str(&seller),
                            Value::str(status),
                        ],
                    )
                    .expect("generated row matches schema arity");
                // status cells carry event timestamps (TD ground truth Γ⪯)
                r.set_timestamp(
                    tid,
                    AttrId(attrs::STATUS),
                    Timestamp::from_days(100 + (ship * 10 + ev) as i32),
                );
            }
        }
    }

    // inject errors
    let mut dirty = clean.clone();
    let mut inj = Injector::new(cfg.seed ^ 0x1066);
    // RS: street typos
    inj.corrupt_attr(&mut dirty, rel, AttrId(attrs::STREET), cfg.error_rate);
    // RR: region nulls + conflicts
    inj.null_attr(&mut dirty, rel, AttrId(attrs::REGION), cfg.error_rate);
    let region_pool: Vec<Value> = ["North", "East", "South", "West"]
        .iter()
        .map(|r| Value::str(*r))
        .collect();
    inj.conflict_attr(
        &mut dirty,
        rel,
        AttrId(attrs::REGION),
        cfg.error_rate / 2.0,
        &region_pool,
    );
    // SN: seller typos
    inj.corrupt_attr(&mut dirty, rel, AttrId(attrs::SELLER), cfg.error_rate);
    // TD: stale statuses
    inj.stale_attr(
        &mut dirty,
        rel,
        AttrId(attrs::STATUS),
        cfg.error_rate / 2.0,
        &[Value::str("created")],
        Timestamp::from_days(5000),
    );
    // ER: duplicated scan rows with reformatted text
    inj.duplicate_tuples(
        &mut dirty,
        rel,
        cfg.error_rate / 2.0,
        &[AttrId(attrs::STREET), AttrId(attrs::SELLER)],
    );
    let truth = inj.truth;

    // models
    let registry = Arc::new(ModelRegistry::new());
    registry.register_pair("Maddr", Arc::new(NgramPairModel::with_threshold(0.72)));
    // Mregion: city → region correlation trained on the clean rows
    let rows: Vec<(Vec<Value>, Value)> = clean
        .relation(rel)
        .iter()
        .map(|t| {
            (
                vec![t.get(AttrId(attrs::CITY)).clone()],
                t.get(AttrId(attrs::REGION)).clone(),
            )
        })
        .collect();
    registry.register_predictor(
        "Mregion",
        Arc::new(ValuePredictor::new(CorrelationModel::train(&rows), 0.3)),
    );
    // Mstatus: pairwise currency over the status attribute
    let pairs: Vec<(Vec<Value>, Vec<Value>)> = (0..40)
        .map(|i| {
            let earlier = STATUSES[i % 2];
            let later = STATUSES[(i % 2) + 1];
            (vec![Value::str(earlier)], vec![Value::str(later)])
        })
        .collect();
    let constraints = vec![
        CurrencyConstraint {
            attr_pos: 0,
            earlier: Value::str("created"),
            later: Value::str("in_transit"),
        },
        CurrencyConstraint {
            attr_pos: 0,
            earlier: Value::str("in_transit"),
            later: Value::str("delivered"),
        },
    ];
    registry.register_rank(
        "Mstatus",
        Arc::new(RankModel::train_creator_critic(
            1,
            &pairs,
            &constraints,
            2,
            cfg.seed,
        )),
    );

    // rules
    let mut rules = RuleSet::new(parse_rules(RULES, &dirty.schema()).expect("curated rules parse"));
    rules.resolve(&registry).expect("models registered");

    // tasks
    let task = |name: &str, prefixes: &[&str], scope_attrs: &[u16]| -> Task {
        Task {
            name: name.into(),
            rule_names: rules
                .iter()
                .filter(|r| prefixes.iter().any(|p| r.name.starts_with(p)))
                .map(|r| r.name.clone())
                .collect(),
            scope: if scope_attrs.is_empty() {
                None
            } else {
                Some(Workload::scope_of(
                    &dirty,
                    &scope_attrs
                        .iter()
                        .map(|a| (rel, AttrId(*a)))
                        .collect::<Vec<_>>(),
                ))
            },
            polynomial_target: None,
        }
    };
    let tasks = vec![
        task("RS", &["rs_"], &[attrs::STREET]),
        task("RR", &["rr_"], &[attrs::REGION]),
        task("SN", &["sn_"], &[attrs::SELLER]),
        task("RClean", &["rs_", "rr_", "sn_", "td_"], &[]),
    ];

    let trusted = Workload::pick_trusted(&dirty, &truth, cfg.trusted_per_rel);

    Workload {
        name: "Logistics".into(),
        clean,
        dirty,
        truth,
        graph: Some(seller_graph(&sellers, cfg.seed)),
        registry,
        rules,
        tasks,
        trusted,
        ml_hints: vec![MlHint {
            model: "Maddr".into(),
            rel: "Shipment".into(),
            attrs: vec!["street".into()],
        }],
    }
}

/// A small KG: seller vertices linked to their registered city (exercised
/// by extraction rules in the examples; the curated task rules above use
/// the correlation path instead so the KG is optional for metrics).
fn seller_graph(sellers: &[(String, String)], seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
    let mut g = Graph::new("LogisticsKG");
    for (_, name) in sellers {
        let v = g.add_vertex(Value::str(name), "Seller");
        let (city, _) = *pick(&mut rng, REGIONS);
        let c = g.add_vertex(Value::str(city), "City");
        g.add_edge(v, "RegisteredIn", c);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl() -> Workload {
        generate(&GenConfig {
            rows: 240,
            error_rate: 0.1,
            seed: 7,
            trusted_per_rel: 20,
        })
    }

    #[test]
    fn shape_and_errors() {
        let w = wl();
        assert_eq!(w.dirty.len(), 1);
        assert!(w.dirty.relation(RelId(0)).len() >= w.clean.relation(RelId(0)).len());
        assert!(w.truth.total() > 10, "errors injected: {}", w.truth.total());
        assert!(!w.truth.corrupted.is_empty());
        assert!(!w.truth.nulled.is_empty());
        assert!(!w.truth.stale.is_empty());
        assert!(!w.truth.duplicate_pairs.is_empty());
    }

    #[test]
    fn tasks_and_rules_wired() {
        let w = wl();
        assert_eq!(w.tasks.len(), 4);
        let rs = w.task("RS").unwrap();
        assert!(rs.rule_names.contains(&"rs_street".to_owned()));
        assert!(!w.rules_for(rs).is_empty());
        let rclean = w.task("RClean").unwrap();
        assert!(rclean.scope.is_none());
        assert_eq!(w.rules_for(rclean).len(), w.rules.len());
    }

    #[test]
    fn rules_resolved_and_valid() {
        let w = wl();
        let schema = w.dirty.schema();
        for r in w.rules.iter() {
            r.validate(&schema).unwrap();
        }
        assert!(w.rules.iter().any(|r| r.uses_ml()));
    }

    #[test]
    fn trusted_seed_is_clean() {
        let w = wl();
        assert!(!w.trusted.is_empty());
        let errors = w.truth.error_cells();
        for t in &w.trusted {
            let rel = w.dirty.relation(t.rel);
            for a in 0..rel.schema.arity() {
                assert!(!errors.contains(&rock_data::CellRef::new(t.rel, t.tid, AttrId(a as u16))));
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = wl();
        let b = wl();
        assert_eq!(a.truth.total(), b.truth.total());
        assert_eq!(
            a.dirty.relation(RelId(0)).len(),
            b.dirty.relation(RelId(0)).len()
        );
    }
}
